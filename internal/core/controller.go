package core

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"predstream/internal/dsps"
	"predstream/internal/stats"
	"predstream/internal/telemetry"
	"predstream/internal/timeseries"
)

// DetectBasis selects which per-worker value drives detection and
// planning.
type DetectBasis int

const (
	// BasisMax uses max(predicted, observed): proactive on model
	// forecasts, but still reactive when an observation falls outside the
	// model's envelope (a trained regressor cannot extrapolate to a
	// fault regime it never saw — its scaled inputs saturate — so acting
	// on predictions alone would be blind to sudden faults). Default.
	BasisMax DetectBasis = iota
	// BasisPredicted uses the model forecast only.
	BasisPredicted
	// BasisObserved uses the last observation only (purely reactive).
	BasisObserved
)

// String implements fmt.Stringer.
func (b DetectBasis) String() string {
	switch b {
	case BasisMax:
		return "max"
	case BasisPredicted:
		return "predicted"
	case BasisObserved:
		return "observed"
	default:
		return fmt.Sprintf("DetectBasis(%d)", int(b))
	}
}

// Engine is the slice of the stream engine's surface the controller
// drives: observe (Snapshot), size planners (QueueSize), and actuate
// parallelism (ScaleUp/ScaleDown). *dsps.Cluster satisfies it directly —
// the local transport — and internal/cluster's RemoteEngine satisfies it
// across the coordinator/worker wire protocol, so the same control loop
// runs in-process and distributed.
type Engine interface {
	// Snapshot captures the engine's current metrics.
	Snapshot() *dsps.Snapshot
	// QueueSize is the per-executor input-queue bound (occupancy basis
	// for the scale planner).
	QueueSize() int
	// ScaleUp adds n executors to a component.
	ScaleUp(topology, component string, n int) error
	// ScaleDown drains and removes n executors of a component.
	ScaleDown(topology, component string, n int, drainTimeout time.Duration) error
}

// RatioActuator applies a dynamic-grouping ratio vector to one controlled
// edge. *dsps.DynamicGrouping satisfies it directly; internal/cluster's
// RemoteGrouping satisfies it by shipping the vector to a worker process.
type RatioActuator interface {
	// SetRatios installs the per-task split ratios (must sum to 1).
	SetRatios(ratios []float64) error
}

// ControlTarget names one dynamic-grouping edge under control: tuples
// flowing into Component are re-split via Grouping.
type ControlTarget struct {
	// Component is the downstream component whose input split is
	// controlled.
	Component string
	// Grouping is the actuator for the edge's split — the handle returned
	// by BoltDeclarer.DynamicGrouping locally, or a RemoteGrouping when
	// the edge lives in a worker process.
	Grouping RatioActuator
	// Topology names the topology hosting Component for parallelism
	// actuation; when empty it is inferred from the snapshot (sufficient
	// unless two running topologies share the component name).
	Topology string
}

// features are the predictor inputs. The controller forecasts each
// worker's processing time (telemetry.TargetProcTime) from windows over
// the controlled components' tasks only, so unrelated co-hosted tasks
// don't dilute the prediction signal.
var features = telemetry.FeatureConfig{Interference: true}

const (
	// historyLimit bounds retained windows per worker.
	historyLimit = 10000
	// stallRateFrac is the stall channel's rate gate: see
	// Config.StallQueueMin.
	stallRateFrac = 0.1
)

// Config parameterizes the controller. Zero fields take the noted
// defaults.
type Config struct {
	// NewPredictor builds one predictor per worker. Required for
	// prediction; when nil the controller runs reactively on the last
	// observation.
	NewPredictor func() timeseries.Predictor
	// MinHistory is the number of windows required before predictors are
	// fitted; default 30.
	MinHistory int
	// Detector flags misbehaving workers; default RelativeDetector{2}.
	Detector Detector
	// Policy converts predictions into ratios; default PolicyBypass.
	Policy PlanPolicy
	// ProbeRatio reserves this share of the stream for each bypassed
	// task so the controller keeps observing it and can re-admit a
	// recovered worker; 0 (default) bypasses hard.
	ProbeRatio float64
	// Basis selects what drives detection and planning; default BasisMax.
	Basis DetectBasis
	// StallQueueMin gates the stall-detection channel: a worker is also
	// flagged misbehaving when it has a backlog above StallQueueMin yet
	// an execute rate below stallRateFrac × the median rate. This catches
	// *stalled* workers, which execute nothing and therefore look healthy
	// to every time-based signal (there are no observations to carry),
	// and stays meaningful even when backpressure saturates every queue.
	// Default 16; StallQueueMin < 0 disables the channel.
	StallQueueMin float64
	// Events, when set, receives one structured event per applied control
	// plan and per detected misbehaving worker (obs.Logger satisfies the
	// interface); nil disables event emission.
	Events dsps.EventSink
	// Scale, when non-nil, widens planning from ratio-only to
	// ratio+parallelism: each control tick also consults a per-component
	// ScalePlanner and actuates its deltas through Cluster.ScaleUp /
	// ScaleDown. A ratio vector applied in the same tick as a scale
	// action is sized for the pre-scale parallelism; DynamicGrouping
	// falls back to a uniform split until the next tick re-plans at the
	// new width.
	Scale *ScaleConfig
}

func (c Config) withDefaults() Config {
	if c.MinHistory <= 0 {
		c.MinHistory = 30
	}
	if c.Detector == nil {
		c.Detector = &RelativeDetector{Factor: 2}
	}
	if c.StallQueueMin == 0 {
		c.StallQueueMin = 16
	}
	return c
}

// StepReport records what one control step observed and decided, the raw
// material of experiment E10's reaction traces.
type StepReport struct {
	At time.Time
	// Predicted holds the per-worker forecast of the control metric (or
	// the last observation before predictors are fitted).
	Predicted map[string]float64
	// Observed holds the per-worker last-window observation.
	Observed map[string]float64
	// Misbehaving is the detector's verdict per worker.
	Misbehaving map[string]bool
	// Basis holds the per-worker value detection and planning actually
	// used (see Config.Basis).
	Basis map[string]float64
	// Applied maps target component → the ratios actually set.
	Applied map[string][]float64
	// Plan is the widened action set of this step: the applied ratio
	// vectors plus any parallelism deltas the scale planner decided.
	Plan Plan
	// ScaleErrors records actuation failures of scale actions (the step
	// itself still succeeds: a lost race against a concurrent scale event
	// must not kill the control loop).
	ScaleErrors []string
	// UsedModel reports whether fitted predictors (vs. reactive
	// fallback) produced Predicted.
	UsedModel bool
}

// Controller is the paper's control loop bound to one engine (a local
// cluster or a remote worker engine reached over the wire).
type Controller struct {
	cfg     Config
	cluster Engine
	targets []ControlTarget

	// fitMu serialises FitPredictors; mu guards everything below, and
	// a fit takes it only to install what it trained.
	fitMu      sync.Mutex
	mu         sync.Mutex
	sampler    *telemetry.Sampler
	predictors map[string]timeseries.Predictor
	fitted     bool
	// history is a ring of the last historyCap reports: report n (from 0)
	// sits in slot n % historyCap. steps counts every report recorded.
	history []StepReport
	steps   int
	scalers map[string]*ScalePlanner // per component, when cfg.Scale is set
}

// NewController builds a controller for the given engine and control
// targets.
func NewController(cluster Engine, targets []ControlTarget, cfg Config) (*Controller, error) {
	if cluster == nil {
		return nil, fmt.Errorf("core: nil cluster")
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("core: no control targets")
	}
	for i, t := range targets {
		if t.Component == "" || t.Grouping == nil {
			return nil, fmt.Errorf("core: target %d incomplete", i)
		}
	}
	cfg = cfg.withDefaults()
	if cfg.Scale != nil {
		sc := cfg.Scale.withDefaults()
		cfg.Scale = &sc
	}
	components := make([]string, len(targets))
	for i, t := range targets {
		components[i] = t.Component
	}
	ctl := &Controller{
		cfg:        cfg,
		cluster:    cluster,
		targets:    targets,
		sampler:    telemetry.NewSamplerFiltered(historyLimit, components...),
		predictors: make(map[string]timeseries.Predictor),
	}
	if cfg.Scale != nil {
		ctl.scalers = make(map[string]*ScalePlanner, len(targets))
		for _, t := range targets {
			ctl.scalers[t.Component] = NewScalePlanner(*cfg.Scale)
		}
	}
	return ctl, nil
}

// historyCap bounds the step reports a controller retains: a loop that runs
// for days must not grow, and pay to copy, one report per step forever.
const historyCap = 4096

// record appends report to the history ring, overwriting the oldest once
// historyCap are held.
func (c *Controller) record(report StepReport) {
	if len(c.history) < historyCap {
		c.history = append(c.history, report)
	} else {
		c.history[c.steps%historyCap] = report
	}
	c.steps++
}

// History returns a copy of the most recent step reports, oldest first, at
// most the last 4096; Last's count keeps counting past that.
func (c *Controller) History() []StepReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Before the ring first fills, oldest == len(history): the first append
	// adds nothing and the second adds everything.
	oldest := c.steps % historyCap
	out := make([]StepReport, 0, len(c.history))
	out = append(out, c.history[oldest:]...)
	return append(out, c.history[:oldest]...)
}

// Last returns the most recent step report and how many steps have run since
// construction; the report is the zero value while steps is 0. It is what a
// metrics scrape needs, without History's copy.
func (c *Controller) Last() (report StepReport, steps int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.steps == 0 {
		return StepReport{}, 0
	}
	return c.history[(c.steps-1)%historyCap], c.steps
}

// Sampler exposes the controller's window history (read-only use).
func (c *Controller) Sampler() *telemetry.Sampler { return c.sampler }

// ErrShortHistory is wrapped by FitPredictors while some worker has fewer
// than MinHistory windows: a caller that steps the controller can retry
// after the next step.
var ErrShortHistory = errors.New("core: too few windows to fit")

// FitPredictors trains one predictor per worker on the collected history.
// It requires cfg.NewPredictor and at least MinHistory windows per worker,
// and fits none until every worker has them. The fits run without c.mu, so
// Step keeps stepping (on the previous predictors, or reactively) while
// they train; fitMu serialises concurrent fits, and the new predictors are
// installed together under c.mu once every one of them has fitted.
func (c *Controller) FitPredictors() error {
	c.fitMu.Lock()
	defer c.fitMu.Unlock()
	if c.cfg.NewPredictor == nil {
		return fmt.Errorf("core: no predictor factory configured")
	}
	workers := c.sampler.Workers()
	if len(workers) == 0 {
		return fmt.Errorf("core: no windows collected yet: %w", ErrShortHistory)
	}
	history := make([][]telemetry.WindowStats, len(workers))
	for i, id := range workers {
		history[i] = c.sampler.Series(id)
		if len(history[i]) < c.cfg.MinHistory {
			return fmt.Errorf("core: worker %s has %d windows, need %d: %w", id, len(history[i]), c.cfg.MinHistory, ErrShortHistory)
		}
	}
	fitted := make([]timeseries.Predictor, len(workers))
	for i, id := range workers {
		series := telemetry.ToSeries(history[i], telemetry.TargetProcTime, features)
		p := c.cfg.NewPredictor()
		if err := p.Fit(series); err != nil {
			return fmt.Errorf("core: fit %s for %s: %w", p.Name(), id, err)
		}
		fitted[i] = p
	}
	c.mu.Lock()
	for i, id := range workers {
		c.predictors[id] = fitted[i]
	}
	c.fitted = true
	c.mu.Unlock()
	return nil
}

// Step runs one control iteration: sample → predict → detect → plan →
// actuate, returning the report. Before predictors are fitted it falls
// back to reacting to the last observation.
func (c *Controller) Step() (StepReport, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := c.cluster.Snapshot()
	c.sampler.Sample(snap)

	report := StepReport{
		At:          snap.At,
		Predicted:   map[string]float64{},
		Observed:    map[string]float64{},
		Basis:       map[string]float64{},
		Misbehaving: map[string]bool{},
		Applied:     map[string][]float64{},
	}
	workers := c.sampler.Workers()
	if len(workers) == 0 {
		// First sample only establishes the baseline.
		c.record(report)
		return report, nil
	}
	for _, id := range workers {
		wins := c.sampler.Series(id)
		last := wins[len(wins)-1]
		obs := telemetry.Target(last, telemetry.TargetProcTime)
		report.Observed[id] = obs
		pred := obs
		// A worker first seen after the fit copied its history has no
		// predictor yet and is stepped reactively.
		if p := c.predictors[id]; c.fitted && p != nil {
			series := telemetry.ToSeries(wins, telemetry.TargetProcTime, features)
			if series.Len() >= p.MinContext() {
				if v, err := p.Predict(series, 1); err == nil {
					pred = v
					report.UsedModel = true
				}
			}
		}
		report.Predicted[id] = pred
		// The detector and planner treat the basis as time-like (higher =
		// worse), which processing time is.
		basis := pred
		switch c.cfg.Basis {
		case BasisObserved:
			basis = obs
		case BasisMax:
			if obs > basis {
				basis = obs
			}
		}
		report.Basis[id] = basis
	}
	report.Misbehaving = c.cfg.Detector.Detect(report.Basis)
	// Stall channel: a stalled worker executes nothing, so no time-based
	// signal exists for it — a backlog with no throughput is the
	// evidence.
	if c.cfg.StallQueueMin > 0 {
		type qr struct{ queue, rate float64 }
		obs := map[string]qr{}
		var rates []float64
		for _, id := range workers {
			wins := c.sampler.Series(id)
			last := wins[len(wins)-1]
			obs[id] = qr{queue: last.QueueLen, rate: last.ExecRate}
			rates = append(rates, last.ExecRate)
		}
		medRate := stats.Median(rates)
		for id, o := range obs {
			if o.queue > c.cfg.StallQueueMin && o.rate <= stallRateFrac*medRate {
				report.Misbehaving[id] = true
			}
		}
	}

	for _, target := range c.targets {
		taskWorkers := taskWorkersOf(snap, target.Component)
		if len(taskWorkers) == 0 {
			continue
		}
		ratios, err := PlanRatios(c.cfg.Policy, taskWorkers, report.Basis, report.Misbehaving, c.cfg.ProbeRatio)
		if err != nil {
			return report, err
		}
		action := Action{Component: target.Component, Ratios: ratios}
		if sp := c.scalers[target.Component]; sp != nil {
			sig := c.scaleSignals(snap, target.Component, taskWorkers, report.Basis)
			action.Scale, action.Reason = sp.Decide(snap.At, sig)
		}
		report.Plan.Actions = append(report.Plan.Actions, action)

		if err := target.Grouping.SetRatios(ratios); err != nil {
			return report, fmt.Errorf("core: apply ratios to %s: %w", target.Component, err)
		}
		report.Applied[target.Component] = ratios
		if c.cfg.Events != nil {
			c.cfg.Events.Event(dsps.EventInfo, "control plan applied",
				"component", target.Component,
				"ratios", formatRatios(ratios),
				"misbehaving", misbehavingList(report.Misbehaving))
		}
		if action.Scale != 0 {
			if err := c.actuateScale(snap, target, action); err != nil {
				// A failed scale action (e.g. a lost race against a chaos
				// script's concurrent scale event) is recorded, not fatal.
				report.ScaleErrors = append(report.ScaleErrors, err.Error())
				if c.cfg.Events != nil {
					c.cfg.Events.Event(dsps.EventWarn, "scale action failed",
						"component", target.Component, "error", err.Error())
				}
			} else if c.cfg.Events != nil {
				c.cfg.Events.Event(dsps.EventInfo, "scale action applied",
					"component", target.Component,
					"delta", strconv.Itoa(action.Scale),
					"reason", action.Reason)
			}
		}
	}
	c.record(report)
	return report, nil
}

// scaleSignals folds a snapshot into the scale planner's per-window input
// for one component: live parallelism, mean queue occupancy, and the mean
// basis over the workers hosting the component.
func (c *Controller) scaleSignals(snap *dsps.Snapshot, component string, taskWorkers []string, basis map[string]float64) ScaleSignals {
	tasks := snap.ComponentTasks(component)
	sig := ScaleSignals{Parallelism: len(tasks)}
	if qs := c.cluster.QueueSize(); qs > 0 && len(tasks) > 0 {
		var occ float64
		for _, ts := range tasks {
			occ += float64(ts.QueueLen) / float64(qs)
		}
		sig.Occupancy = occ / float64(len(tasks))
	}
	var sum float64
	n := 0
	for _, w := range taskWorkers {
		if b, ok := basis[w]; ok {
			sum += b
			n++
		}
	}
	if n > 0 {
		sig.Basis = sum / float64(n)
	}
	return sig
}

// actuateScale applies one parallelism delta through the cluster.
func (c *Controller) actuateScale(snap *dsps.Snapshot, target ControlTarget, action Action) error {
	topology := target.Topology
	if topology == "" {
		tasks := snap.ComponentTasks(target.Component)
		if len(tasks) == 0 {
			return fmt.Errorf("core: no tasks to infer topology of %s", target.Component)
		}
		topology = tasks[0].Topology
	}
	if action.Scale > 0 {
		return c.cluster.ScaleUp(topology, target.Component, action.Scale)
	}
	return c.cluster.ScaleDown(topology, target.Component, -action.Scale, c.cfg.Scale.DrainTimeout)
}

// formatRatios renders a ratio vector compactly for event attributes.
func formatRatios(ratios []float64) string {
	var b strings.Builder
	for i, r := range ratios {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(r, 'f', 3, 64))
	}
	return b.String()
}

// misbehavingList renders the flagged workers sorted, or "none".
func misbehavingList(verdicts map[string]bool) string {
	var flagged []string
	for id, bad := range verdicts {
		if bad {
			flagged = append(flagged, id)
		}
	}
	if len(flagged) == 0 {
		return "none"
	}
	sort.Strings(flagged)
	return strings.Join(flagged, ",")
}

// Run executes Step on the given period until ctx is cancelled, returning
// the first error encountered (context cancellation is not an error).
func (c *Controller) Run(ctx context.Context, period time.Duration) error {
	if period <= 0 {
		return fmt.Errorf("core: non-positive control period %v", period)
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
			if _, err := c.Step(); err != nil {
				return err
			}
		}
	}
}

// taskWorkersOf returns the worker hosting each task of component, ordered
// by task index — the order DynamicGrouping targets use.
func taskWorkersOf(snap *dsps.Snapshot, component string) []string {
	tasks := snap.ComponentTasks(component)
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].TaskIndex < tasks[j].TaskIndex })
	out := make([]string, len(tasks))
	for i, t := range tasks {
		out[i] = t.WorkerID
	}
	return out
}
