package experiments

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"predstream/internal/chaos"
	"predstream/internal/core"
	"predstream/internal/dsps"
	"predstream/internal/scenario"
)

// E6/E7 slow each misbehaving worker by reliabilitySlowdown (unless it
// stalls), and the framework steps its controller every
// reliabilityControlPeriod.
const (
	reliabilitySlowdown      = 8
	reliabilityControlPeriod = 200 * time.Millisecond
)

// ReliabilityConfig parameterizes E6/E7: throughput and latency of the
// framework vs the static baseline under misbehaving workers.
type ReliabilityConfig struct {
	// Misbehaving lists the fault counts to test; default {0, 1, 2}.
	Misbehaving []int
	// Stall injects a full hang instead of a slowdown (the crash flavour
	// of misbehaviour); the controller then relies on its stall-detection
	// channel rather than processing-time prediction.
	Stall bool
	// Warmup runs before measurement; default 2s.
	Warmup time.Duration
	// Measure is the measurement interval; default 3s.
	Measure time.Duration
	// Workers is the worker-process count; default 4.
	Workers int
	// Seed drives the workload.
	Seed int64
}

func (c ReliabilityConfig) withDefaults() ReliabilityConfig {
	if len(c.Misbehaving) == 0 {
		c.Misbehaving = []int{0, 1, 2}
	}
	if c.Warmup <= 0 {
		c.Warmup = 2 * time.Second
	}
	if c.Measure <= 0 {
		c.Measure = 3 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ReliabilityCell is one (system, fault count) measurement.
type ReliabilityCell struct {
	System      string // "framework" or "static"
	Misbehaving int
	scenario.Summary
}

// ReliabilityResult is the E6 (throughput) and E7 (latency) matrix.
type ReliabilityResult struct {
	Cells []ReliabilityCell
}

// Cell returns the measurement for one (system, misbehaving) pair.
func (r *ReliabilityResult) Cell(system string, misbehaving int) (ReliabilityCell, bool) {
	for _, c := range r.Cells {
		if c.System == system && c.Misbehaving == misbehaving {
			return c, true
		}
	}
	return ReliabilityCell{}, false
}

// Degradation returns throughput relative to the same system's
// fault-free run (1 = no degradation).
func (r *ReliabilityResult) Degradation(system string, misbehaving int) float64 {
	base, ok1 := r.Cell(system, 0)
	cell, ok2 := r.Cell(system, misbehaving)
	if !ok1 || !ok2 || base.ThroughputTPS == 0 {
		return 0
	}
	return cell.ThroughputTPS / base.ThroughputTPS
}

// Render prints the E6/E7 tables.
func (r *ReliabilityResult) Render() string {
	var b strings.Builder
	b.WriteString("Reliability under misbehaving workers — Windowed URL Count\n")
	fmt.Fprintf(&b, "  %-10s %-12s %14s %13s %11s %10s %10s\n",
		"system", "misbehaving", "throughput/s", "latency(ms)", "p99(ms)", "failed/s", "vs healthy")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %-10s %-12d %14.0f %13.2f %11.1f %10.1f %9.0f%%\n",
			c.System, c.Misbehaving, c.ThroughputTPS, c.AvgLatencyMs, c.P99LatencyMs, c.FailedTPS,
			100*r.Degradation(c.System, c.Misbehaving))
	}
	return b.String()
}

// RunReliability executes E6/E7: for each fault count it runs the
// framework (dynamic grouping + the controller with no predictor, so it
// reacts to the last window; bypass policy) and the static shuffle
// baseline on the URL-count topology, injecting Slowdown× faults on
// parse-stage workers during warmup, then measures steady-state
// throughput and complete latency.
func RunReliability(cfg ReliabilityConfig) (*ReliabilityResult, error) {
	cfg = cfg.withDefaults()
	result := &ReliabilityResult{}
	for _, faults := range cfg.Misbehaving {
		for _, system := range []string{"framework", "static"} {
			var control *core.Config
			if system == "framework" {
				control = &core.Config{Policy: core.PolicyBypass}
			}
			sum, err := runCell(cfg, control, faults)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s with %d faults: %w", system, faults, err)
			}
			result.Cells = append(result.Cells, ReliabilityCell{system, faults, sum})
		}
	}
	return result, nil
}

// PolicyAblationResult is E11: throughput under one misbehaving worker for
// each planner policy, the design-choice ablation DESIGN.md calls out.
type PolicyAblationResult struct {
	// Healthy is the fault-free reference throughput (bypass policy).
	Healthy float64
	// Cells maps policy name → throughput with one misbehaving worker.
	Cells []PolicyCell
}

// PolicyCell is one policy's measurement.
type PolicyCell struct {
	Policy        string
	ThroughputTPS float64
	Retained      float64 // fraction of Healthy
}

// Render prints the E11 table.
func (r *PolicyAblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Planner policy ablation — 1 misbehaving worker (healthy reference %.0f tuples/s)\n", r.Healthy)
	fmt.Fprintf(&b, "  %-10s %14s %10s\n", "policy", "throughput/s", "retained")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %-10s %14.0f %9.0f%%\n", c.Policy, c.ThroughputTPS, 100*c.Retained)
	}
	return b.String()
}

// RunPolicyAblation executes E11: with one 8× misbehaving worker, compare
// the controller's three planner policies (hard bypass, inverse-weighted,
// uniform). Uniform keeps the dynamic edge but steers nothing (the
// grouping still re-routes blocked batches), isolating how much of the
// reliability win comes from the planner rather than the grouping.
func RunPolicyAblation(cfg ReliabilityConfig) (*PolicyAblationResult, error) {
	cfg = cfg.withDefaults()
	healthy, err := runCell(cfg, &core.Config{Policy: core.PolicyBypass}, 0)
	if err != nil {
		return nil, err
	}
	out := &PolicyAblationResult{Healthy: healthy.ThroughputTPS}
	for _, p := range []core.PlanPolicy{core.PolicyBypass, core.PolicyWeighted, core.PolicyUniform} {
		c, err := runCell(cfg, &core.Config{Policy: p}, 1)
		if err != nil {
			return nil, fmt.Errorf("experiments: policy %s: %w", p, err)
		}
		cell := PolicyCell{Policy: p.String(), ThroughputTPS: c.ThroughputTPS}
		if out.Healthy > 0 {
			cell.Retained = c.ThroughputTPS / out.Healthy
		}
		out.Cells = append(out.Cells, cell)
	}
	return out, nil
}

// runCell runs one URL-count measurement: control (nil = the static
// shuffle baseline) steers the parse edge, and halfway through the warmup
// the first faults victims slow down (or stall).
func runCell(cfg ReliabilityConfig, control *core.Config, faults int) (scenario.Summary, error) {
	fault := dsps.Fault{Slowdown: reliabilitySlowdown}
	if cfg.Stall {
		fault = dsps.Fault{Stall: true}
	}
	var script chaos.Script
	for i := 0; i < faults; i++ {
		script.Events = append(script.Events,
			chaos.Event{At: cfg.Warmup / 2, Kind: chaos.KindInject, WorkerIndex: i, Fault: fault})
	}
	res, err := scenario.Run(scenario.Spec{
		Workers: cfg.Workers,
		Seed:    cfg.Seed,
		Period:  reliabilityControlPeriod,
		Warmup:  cfg.Warmup,
		Measure: cfg.Measure,
		Control: control,
		Faults:  script,
	})
	if err != nil {
		return scenario.Summary{}, err
	}
	return res.Summary, nil
}

// ReactionConfig parameterizes E10, the control-loop reaction trace.
type ReactionConfig struct {
	// Steps is the number of control periods to record; default 20.
	Steps int
	// FaultAtStep injects the fault after this step; default Steps/2.
	FaultAtStep int
	// ClearAtStep clears the fault at this step (0 = never), exercising
	// the probe-based re-admission path; requires ProbeRatio > 0 to have
	// an effect.
	ClearAtStep int
	// ProbeRatio is passed to the controller (share of the stream kept
	// flowing to bypassed workers for recovery detection); default 0.
	ProbeRatio float64
	// Seed drives the workload.
	Seed int64

	// controlPeriod is the step period; default 200ms; tests shorten it.
	controlPeriod time.Duration
}

// reactionSlowdown is E10's injected slowdown factor.
const reactionSlowdown = 10

func (c ReactionConfig) withDefaults() ReactionConfig {
	if c.Steps <= 0 {
		c.Steps = 20
	}
	if c.FaultAtStep <= 0 {
		c.FaultAtStep = c.Steps / 2
	}
	if c.controlPeriod <= 0 {
		c.controlPeriod = 200 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ReactionPoint is one control period of E10.
type ReactionPoint struct {
	Step        int
	FaultActive bool
	// VictimRatio is the split share the (eventual) victim worker's parse
	// task holds.
	VictimRatio float64
	// VictimFlagged reports whether the detector flagged the victim.
	VictimFlagged bool
	// ThroughputTPS is the acked rate during the period.
	ThroughputTPS float64
}

// ReactionResult is the E10 trace.
type ReactionResult struct {
	Victim string
	Points []ReactionPoint
	// ReactionSteps is how many control periods after fault onset the
	// victim's ratio reached the bypass level (-1 if never).
	ReactionSteps int
	// ReadmitSteps is how many control periods after the fault cleared
	// the victim regained a full share (-1 if never / not exercised).
	ReadmitSteps int
}

// Render prints the E10 trace.
func (r *ReactionResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Control-loop reaction — fault on %s\n", r.Victim)
	fmt.Fprintf(&b, "  %-5s %-6s %-9s %-8s %12s\n", "step", "fault", "flagged", "ratio", "acked/s")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %-5d %-6v %-9v %-8.3f %12.0f\n",
			p.Step, p.FaultActive, p.VictimFlagged, p.VictimRatio, p.ThroughputTPS)
	}
	fmt.Fprintf(&b, "  reaction time: %d control period(s)\n", r.ReactionSteps)
	if r.ReadmitSteps >= 0 {
		fmt.Fprintf(&b, "  re-admission time: %d control period(s) after recovery\n", r.ReadmitSteps)
	}
	return b.String()
}

// RunReaction executes E10: the framework runs on URL count; a fault
// lands mid-run; the per-step split ratios and throughput around the onset
// are recorded.
func RunReaction(cfg ReactionConfig) (*ReactionResult, error) {
	cfg = cfg.withDefaults()
	period := cfg.controlPeriod
	script := chaos.Script{Events: []chaos.Event{{
		At: time.Duration(cfg.FaultAtStep) * period, Kind: chaos.KindInject,
		Fault: dsps.Fault{Slowdown: reactionSlowdown},
	}}}
	if cfg.ClearAtStep > 0 {
		script.Events = append(script.Events,
			chaos.Event{At: time.Duration(cfg.ClearAtStep) * period, Kind: chaos.KindClear})
	}
	res, err := scenario.Run(scenario.Spec{
		Seed:    cfg.Seed,
		Period:  period,
		Measure: time.Duration(cfg.Steps) * period,
		Control: &core.Config{Policy: core.PolicyBypass, ProbeRatio: cfg.ProbeRatio},
		Faults:  script,
	})
	if err != nil {
		return nil, err
	}
	victim := res.Victims[0]
	victimIdx := slices.Index(res.Placement, victim)

	result := &ReactionResult{Victim: victim, ReactionSteps: -1, ReadmitSteps: -1}
	for step, st := range res.Trace {
		point := ReactionPoint{
			Step: step,
			// A fault fired at one tick is active over the next step's
			// window.
			FaultActive:   step > 0 && len(res.Trace[step-1].Faults) > 0,
			VictimFlagged: st.Report.Misbehaving[victim],
			ThroughputTPS: st.AckedTPS,
		}
		if victimIdx < len(st.Ratios) {
			point.VictimRatio = st.Ratios[victimIdx]
		}
		bypassed := point.VictimRatio <= cfg.ProbeRatio+1e-9
		if point.FaultActive && result.ReactionSteps < 0 && bypassed {
			result.ReactionSteps = step - cfg.FaultAtStep
		}
		if cfg.ClearAtStep > 0 && step >= cfg.ClearAtStep &&
			result.ReadmitSteps < 0 && !point.VictimFlagged && !bypassed {
			result.ReadmitSteps = step - cfg.ClearAtStep
		}
		result.Points = append(result.Points, point)
	}
	return result, nil
}
