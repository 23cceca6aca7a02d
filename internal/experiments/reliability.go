package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"predstream/internal/apps/urlcount"
	"predstream/internal/core"
	"predstream/internal/dsps"
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
	// Warmup runs before measurement; default 1s.
	Warmup time.Duration
	// Measure is the measurement interval; default 2s.
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
	if c.Workers <= 0 {
		c.Workers = 4
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
	// ThroughputTPS is acked roots per second over the measurement
	// interval.
	ThroughputTPS float64
	// AvgLatencyMs is the mean complete latency of roots acked during the
	// interval.
	AvgLatencyMs float64
	// P99LatencyMs is the 99th-percentile complete latency during the
	// interval (from histogram deltas).
	P99LatencyMs float64
	// FailedTPS is failed roots per second (timeouts/drops).
	FailedTPS float64
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
// framework (dynamic grouping + predictive controller, bypass policy) and
// the static shuffle baseline on the URL-count topology, injecting
// Slowdown× faults on parse-stage workers after warmup, then measures
// steady-state throughput and complete latency.
func RunReliability(cfg ReliabilityConfig) (*ReliabilityResult, error) {
	cfg = cfg.withDefaults()
	result := &ReliabilityResult{}
	for _, faults := range cfg.Misbehaving {
		for _, system := range []string{"framework", "static"} {
			cell, err := runReliabilityCell(cfg, system, faults)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s with %d faults: %w", system, faults, err)
			}
			result.Cells = append(result.Cells, cell)
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
// uniform). Uniform ≈ the dynamic-grouping equivalent of the static
// baseline, isolating how much of the reliability win comes from the
// planner rather than the grouping mechanism.
func RunPolicyAblation(cfg ReliabilityConfig) (*PolicyAblationResult, error) {
	cfg = cfg.withDefaults()
	healthy, err := runPolicyCell(cfg, core.PolicyBypass, 0)
	if err != nil {
		return nil, err
	}
	out := &PolicyAblationResult{Healthy: healthy}
	for _, p := range []core.PlanPolicy{core.PolicyBypass, core.PolicyWeighted, core.PolicyUniform} {
		tps, err := runPolicyCell(cfg, p, 1)
		if err != nil {
			return nil, fmt.Errorf("experiments: policy %s: %w", p, err)
		}
		cell := PolicyCell{Policy: p.String(), ThroughputTPS: tps}
		if healthy > 0 {
			cell.Retained = tps / healthy
		}
		out.Cells = append(out.Cells, cell)
	}
	return out, nil
}

func runPolicyCell(cfg ReliabilityConfig, policy core.PlanPolicy, faults int) (float64, error) {
	cell, err := runCell(cfg, true, &policy, faults)
	return cell.ThroughputTPS, err
}

func runReliabilityCell(cfg ReliabilityConfig, system string, faults int) (ReliabilityCell, error) {
	policy := core.PolicyBypass
	var p *core.PlanPolicy
	if system == "framework" {
		p = &policy
	}
	cell, err := runCell(cfg, system == "framework", p, faults)
	cell.System = system
	cell.Misbehaving = faults
	return cell, err
}

// runCell runs one URL-count measurement: dynamic selects the grouping,
// policy (nil = no controller) the control behaviour, faults the number of
// slowed parse workers.
func runCell(cfg ReliabilityConfig, dynamic bool, policy *core.PlanPolicy, faults int) (ReliabilityCell, error) {
	var cell ReliabilityCell
	appCfg := urlcount.Config{
		Dynamic: dynamic,
		// Parse dominates the pipeline so bypassing the slow parse task
		// restores throughput; count is free of simulated cost because
		// fields grouping cannot bypass (see DESIGN.md). 5ms clears the
		// ~2ms sleep granularity floor so the slowdown signal dominates
		// timer noise.
		ParseCost: 5 * time.Millisecond,
		CountCost: -1,
		Window:    2 * time.Second,
		Slide:     500 * time.Millisecond,
		Seed:      cfg.Seed,
	}
	topo, _, dg, err := urlcount.Build(appCfg)
	if err != nil {
		return cell, err
	}
	ccfg := dsps.ClusterConfig{
		Nodes:        2,
		CoresPerNode: 4,
		Seed:         cfg.Seed,
		AckTimeout:   10 * time.Second,
		// Shallow queues and a tight spout-pending cap make the slow
		// worker's backpressure reach the spout within the warmup, so the
		// measurement window sees the degraded steady state rather than
		// the queue-filling transient.
		QueueSize:       64,
		MaxSpoutPending: 256,
	}
	cluster := dsps.NewCluster(ccfg)
	if err := cluster.Submit(topo, dsps.SubmitConfig{Workers: cfg.Workers}); err != nil {
		return cell, err
	}
	defer cluster.Shutdown()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if policy != nil {
		ctrl, err := core.NewController(cluster,
			[]core.ControlTarget{{Component: "parse", Grouping: dg}},
			core.Config{Policy: *policy})
		if err != nil {
			return cell, err
		}
		go func() { _ = ctrl.Run(ctx, reliabilityControlPeriod) }()
	}

	time.Sleep(cfg.Warmup / 2)
	// Fault the workers hosting parse tasks (skipping the spout's worker
	// keeps the source alive, as the paper's misbehaving workers are
	// processing workers).
	victims, err := parseWorkers(cluster, faults)
	if err != nil {
		return cell, err
	}
	for _, w := range victims {
		fault := dsps.Fault{Slowdown: reliabilitySlowdown}
		if cfg.Stall {
			fault = dsps.Fault{Stall: true}
		}
		if err := cluster.InjectFault(w, fault); err != nil {
			return cell, err
		}
	}
	time.Sleep(cfg.Warmup / 2)

	before := cluster.Snapshot()
	time.Sleep(cfg.Measure)
	after := cluster.Snapshot()

	dt := after.At.Sub(before.At).Seconds()
	acked := after.TotalAcked() - before.TotalAcked()
	failed := after.TotalFailed() - before.TotalFailed()
	cell.ThroughputTPS = float64(acked) / dt
	cell.FailedTPS = float64(failed) / dt
	if acked > 0 {
		cell.AvgLatencyMs, cell.P99LatencyMs = completeLatencyMs(before, after, acked)
	}
	return cell, nil
}

// completeLatencyMs returns the mean and 99th-percentile complete latency,
// in milliseconds, of the acked roots completed between two snapshots of
// one cluster: the spouts' cumulative latency and histogram deltas.
func completeLatencyMs(before, after *dsps.Snapshot, acked int64) (avg, p99 float64) {
	var lat time.Duration
	var hist []int64
	for _, ts := range after.Tasks {
		if !ts.IsSpout {
			continue
		}
		prev, _ := before.TaskByID(ts.TaskID)
		lat += ts.CompleteLatency - prev.CompleteLatency
		diff := make([]int64, len(ts.CompleteHist))
		for i, c := range ts.CompleteHist {
			diff[i] = c
			if i < len(prev.CompleteHist) {
				diff[i] -= prev.CompleteHist[i]
			}
		}
		hist = dsps.MergeHistograms(hist, diff)
	}
	return lat.Seconds() * 1000 / float64(acked), dsps.HistogramQuantile(hist, 0.99).Seconds() * 1000
}

// parseWorkers returns up to n distinct workers hosting parse tasks,
// preferring workers that do not also host the spout.
func parseWorkers(c *dsps.Cluster, n int) ([]string, error) {
	if n == 0 {
		return nil, nil
	}
	snap := c.Snapshot()
	spoutWorkers := map[string]bool{}
	for _, ts := range snap.ComponentTasks("urls") {
		spoutWorkers[ts.WorkerID] = true
	}
	seen := map[string]bool{}
	var candidates []string
	for _, ts := range snap.ComponentTasks("parse") {
		if seen[ts.WorkerID] || spoutWorkers[ts.WorkerID] {
			continue
		}
		seen[ts.WorkerID] = true
		candidates = append(candidates, ts.WorkerID)
	}
	if len(candidates) < n {
		return nil, fmt.Errorf("experiments: only %d non-spout parse workers for %d faults", len(candidates), n)
	}
	return candidates[:n], nil
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
	topo, _, dg, err := urlcount.Build(urlcount.Config{
		Dynamic:   true,
		ParseCost: 5 * time.Millisecond,
		CountCost: -1,
		Window:    2 * time.Second,
		Slide:     500 * time.Millisecond,
		Seed:      cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	cluster := dsps.NewCluster(dsps.ClusterConfig{
		Nodes: 2, CoresPerNode: 4, Seed: cfg.Seed, AckTimeout: 10 * time.Second,
	})
	if err := cluster.Submit(topo, dsps.SubmitConfig{Workers: 4}); err != nil {
		return nil, err
	}
	defer cluster.Shutdown()
	ctrl, err := core.NewController(cluster,
		[]core.ControlTarget{{Component: "parse", Grouping: dg}},
		core.Config{Policy: core.PolicyBypass, ProbeRatio: cfg.ProbeRatio})
	if err != nil {
		return nil, err
	}

	victims, err := parseWorkers(cluster, 1)
	if err != nil {
		return nil, err
	}
	victim := victims[0]
	victimIdx := -1
	for _, ts := range cluster.Snapshot().ComponentTasks("parse") {
		if ts.WorkerID == victim {
			victimIdx = ts.TaskIndex
		}
	}
	if victimIdx < 0 {
		return nil, fmt.Errorf("experiments: victim hosts no parse task")
	}

	result := &ReactionResult{Victim: victim, ReactionSteps: -1, ReadmitSteps: -1}
	prevAcked := cluster.Snapshot().TotalAcked()
	faultActive := false
	for step := 0; step < cfg.Steps; step++ {
		if step == cfg.FaultAtStep {
			if err := cluster.InjectFault(victim, dsps.Fault{Slowdown: reactionSlowdown}); err != nil {
				return nil, err
			}
			faultActive = true
		}
		if cfg.ClearAtStep > 0 && step == cfg.ClearAtStep {
			cluster.ClearFault(victim)
			faultActive = false
		}
		time.Sleep(cfg.controlPeriod)
		report, err := ctrl.Step()
		if err != nil {
			return nil, err
		}
		snap := cluster.Snapshot()
		acked := snap.TotalAcked()
		point := ReactionPoint{
			Step:          step,
			FaultActive:   faultActive,
			VictimFlagged: report.Misbehaving[victim],
			ThroughputTPS: float64(acked-prevAcked) / cfg.controlPeriod.Seconds(),
		}
		prevAcked = acked
		if ratios, ok := report.Applied["parse"]; ok && victimIdx < len(ratios) {
			point.VictimRatio = ratios[victimIdx]
		} else if len(result.Points) > 0 {
			point.VictimRatio = result.Points[len(result.Points)-1].VictimRatio
		}
		bypassed := point.VictimRatio <= cfg.ProbeRatio+1e-9
		if faultActive && result.ReactionSteps < 0 && bypassed {
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
