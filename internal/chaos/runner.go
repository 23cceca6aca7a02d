package chaos

import (
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"time"

	"predstream/internal/dsps"
)

// Metrics exposes live chaos-run counters as atomics, safe to read
// concurrently while Run executes — the hook internal/obs scrapes for
// /metrics. Share one Metrics across sequential runs to accumulate.
type Metrics struct {
	// Runs counts Run invocations.
	Runs atomic.Int64
	// EventsFired counts script events successfully applied.
	EventsFired atomic.Int64
	// EventsSkipped counts script events rejected (unknown worker, dead
	// topology, invalid fault — all legitimate under churn).
	EventsSkipped atomic.Int64
	// Checks counts invariant sweeps.
	Checks atomic.Int64
	// Violations holds the violation count of the current/last run
	// (stored, not accumulated, after every sweep).
	Violations atomic.Int64
}

// ControlledEdge declares one dynamic-grouping edge whose plan the checker
// audits (see checker.plan).
type ControlledEdge struct {
	// Component is the downstream component whose input split is
	// controlled.
	Component string
	// Grouping is the handle the controller steers.
	Grouping *dsps.DynamicGrouping
	// DetectionLatency is how long a stalled worker may keep receiving
	// traffic before the bypass invariant fires; default 2s.
	DetectionLatency time.Duration
	// MaxStalledShare is the tolerated post-detection share of a stalled
	// worker (the controller's probe ratio plus slack); default 0.01.
	MaxStalledShare float64
}

// maxViolations caps the report size.
const maxViolations = 32

// Options configures a chaos run. Zero fields take the noted defaults.
type Options struct {
	// CheckEvery is the cadence of continuous invariant checks between
	// events; default 20ms.
	//
	//dspslint:ignore unused FuzzChaosSchedule samples the continuous invariants every 10ms
	CheckEvery time.Duration
	// SpoutComponents names the components whose emissions are anchored
	// roots (see Topology.Spouts); required for the conservation check,
	// which is skipped when empty.
	SpoutComponents []string
	// Controlled lists dynamic-grouping edges whose plans are audited.
	Controlled []ControlledEdge
	// Log, when set, receives one line per fired event.
	Log io.Writer
	// Metrics, when set, is updated live as the run progresses (fired/
	// skipped events, checks, violations) for metrics scraping.
	Metrics *Metrics
	// Events, when set, receives one structured event per fired or
	// skipped script event (obs.Logger satisfies the interface).
	Events dsps.EventSink
}

// Report is the outcome of a chaos run.
type Report struct {
	// Seed is the script's seed — the reproducer token.
	Seed int64
	// Events is the script length; Fired and Skipped partition how many
	// were applied vs rejected (unknown worker, dead topology, invalid
	// fault — all legitimate under churn).
	Events, Fired, Skipped int
	// Checks counts invariant sweeps.
	Checks int
	// Drained reports whether the final quiescence drain completed.
	Drained bool
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration
	// Violations are the invariant breaches (empty = clean run).
	Violations []Violation
	// ViolationsTruncated reports that more violations occurred than
	// maxViolations.
	ViolationsTruncated bool
}

// OK reports whether the run held every invariant.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Err returns nil for a clean run, or an error naming the first violation
// and the reproducing seed.
func (r *Report) Err() error {
	if r.OK() {
		return nil
	}
	return fmt.Errorf("chaos: %d invariant violation(s), first: %s (reproduce with seed %d)",
		len(r.Violations), r.Violations[0], r.Seed)
}

// String renders the report; a failing report always includes the
// reproducing seed.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos: seed=%d events=%d fired=%d skipped=%d checks=%d drained=%v elapsed=%v violations=%d\n",
		r.Seed, r.Events, r.Fired, r.Skipped, r.Checks, r.Drained, r.Elapsed.Round(time.Millisecond), len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	if r.ViolationsTruncated {
		b.WriteString("  ... more violations truncated\n")
	}
	if !r.OK() {
		fmt.Fprintf(&b, "  reproduce: replay the same script/generator config with seed=%d\n", r.Seed)
	}
	return b.String()
}

// Run replays the script against the cluster, interleaving invariant
// checks, then clears all faults, pauses spouts, drains, and runs the
// quiescent-state checks. The returned error covers harness misuse only;
// invariant outcomes live in the Report.
func Run(c *dsps.Cluster, s Script, opts Options) (*Report, error) {
	if c == nil {
		return nil, fmt.Errorf("chaos: nil cluster")
	}
	// drainTimeout bounds each quiescence drain (checkpoints and the
	// final phase). Dropped tuples only fail via the ack-timeout sweep.
	drainTimeout := 2*c.Config().AckTimeout + time.Second
	if opts.CheckEvery <= 0 {
		opts.CheckEvery = 20 * time.Millisecond
	}
	for i := range opts.Controlled {
		e := &opts.Controlled[i]
		if e.Component == "" || e.Grouping == nil {
			return nil, fmt.Errorf("chaos: controlled edge %d incomplete", i)
		}
		if e.DetectionLatency <= 0 {
			e.DetectionLatency = 2 * time.Second
		}
		if e.MaxStalledShare <= 0 {
			e.MaxStalledShare = 0.01
		}
	}
	evs := s.sorted()
	for _, ev := range evs {
		if ev.At < 0 {
			return nil, fmt.Errorf("chaos: event %q has negative time", ev)
		}
	}

	rep := &Report{Seed: s.Seed, Events: len(evs)}
	if opts.Metrics != nil {
		opts.Metrics.Runs.Add(1)
	}
	// Queue occupancy is producer-reserved before each batch hand-off, so
	// the configured bound holds exactly regardless of batch sizes.
	ck := newChecker(c.Config().QueueSize, maxViolations)
	spouts := make(map[string]bool, len(opts.SpoutComponents))
	for _, sc := range opts.SpoutComponents {
		spouts[sc] = true
	}
	// stallSince tracks when each worker entered a *continuous* stall, the
	// clock the plan-bypass invariant measures detection latency against.
	stallSince := map[string]time.Time{}
	stalledFor := func(w string) time.Duration {
		if t0, ok := stallSince[w]; ok {
			return time.Since(t0)
		}
		return 0
	}
	pruneStalls := func() {
		live := map[string]bool{}
		for _, id := range c.WorkerIDs() {
			live[id] = true
		}
		for w := range stallSince {
			if !live[w] {
				delete(stallSince, w)
			}
		}
	}
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, format+"\n", args...)
		}
	}

	check := func() {
		snap := c.Snapshot()
		ck.continuous(snap)
		for _, e := range opts.Controlled {
			ck.plan(e, snap, stalledFor)
		}
		rep.Checks++
		if opts.Metrics != nil {
			opts.Metrics.Checks.Add(1)
			opts.Metrics.Violations.Store(int64(len(ck.violations)))
		}
	}
	// quiesce clears every fault, pauses spouts, and drains: once faults
	// are cleared, queue growth must be bounded — the cluster has to reach
	// full quiescence within the drain timeout, at which point the exact
	// conservation invariants hold.
	quiesce := func(resume bool) bool {
		for _, w := range c.WorkerIDs() {
			c.ClearFault(w)
		}
		for w := range stallSince {
			delete(stallSince, w)
		}
		c.PauseSpouts()
		drained := c.Drain(drainTimeout)
		if !drained {
			ck.violate("drain", "cluster failed to quiesce within %v of clearing all faults (in flight: %d)",
				drainTimeout, c.InFlight())
		}
		snap := c.Snapshot()
		ck.continuous(snap)
		if drained {
			ck.quiescent(c.InFlight(), snap, spouts)
		}
		rep.Checks++
		if opts.Metrics != nil {
			opts.Metrics.Checks.Add(1)
			opts.Metrics.Violations.Store(int64(len(ck.violations)))
		}
		if resume {
			c.ResumeSpouts()
		}
		return drained
	}

	targetTopology := func(ev Event) string {
		if ev.Topology != "" {
			return ev.Topology
		}
		if tops := c.Topologies(); len(tops) > 0 {
			return tops[0]
		}
		return ""
	}
	fire := func(ev Event) {
		applied := false
		switch ev.Kind {
		case KindInject:
			if id := resolveWorker(c, ev); id != "" {
				if err := c.InjectFault(id, ev.Fault); err == nil {
					applied = true
					if ev.Fault.Stall {
						if _, ok := stallSince[id]; !ok {
							stallSince[id] = time.Now()
						}
					} else {
						delete(stallSince, id)
					}
				}
			}
		case KindClear:
			if id := resolveWorker(c, ev); id != "" {
				c.ClearFault(id)
				delete(stallSince, id)
				applied = true
			}
		case KindRebalance:
			if name := targetTopology(ev); name != "" {
				if err := c.Rebalance(name, dsps.SubmitConfig{Workers: ev.Workers, Strategy: ev.Strategy}, ev.DrainTimeout); err == nil {
					applied = true
					pruneStalls()
				}
			}
		case KindKill:
			if name := targetTopology(ev); name != "" {
				if err := c.ShutdownTopology(name); err == nil {
					applied = true
					pruneStalls()
				}
			}
		case KindPause:
			c.PauseSpouts()
			applied = true
		case KindResume:
			c.ResumeSpouts()
			applied = true
		case KindCheckpoint:
			quiesce(true)
			applied = true
		case KindScaleUp:
			if name := targetTopology(ev); name != "" && ev.Component != "" {
				if err := c.ScaleUp(name, ev.Component, ev.taskDelta()); err == nil {
					applied = true
				}
			}
		case KindScaleDown:
			// Floor rejections (parallelism would drop below 1) are
			// legitimate under churn and count as skipped, like inject
			// events targeting dead workers.
			if name := targetTopology(ev); name != "" && ev.Component != "" {
				if err := c.ScaleDown(name, ev.Component, ev.taskDelta(), ev.DrainTimeout); err == nil {
					applied = true
				}
			}
		}
		if applied {
			rep.Fired++
			logf("chaos: fired %s", ev)
			if opts.Metrics != nil {
				opts.Metrics.EventsFired.Add(1)
			}
			if opts.Events != nil {
				opts.Events.Event(dsps.EventWarn, "chaos event fired", "event", fmt.Sprint(ev))
			}
		} else {
			rep.Skipped++
			logf("chaos: skipped %s", ev)
			if opts.Metrics != nil {
				opts.Metrics.EventsSkipped.Add(1)
			}
			if opts.Events != nil {
				opts.Events.Event(dsps.EventDebug, "chaos event skipped", "event", fmt.Sprint(ev))
			}
		}
	}

	i := 0
	for i < len(evs) {
		now := time.Since(ck.start)
		if evs[i].At <= now {
			fire(evs[i])
			i++
			continue
		}
		check()
		wait := evs[i].At - time.Since(ck.start)
		if wait > opts.CheckEvery {
			wait = opts.CheckEvery
		}
		if wait > 0 {
			time.Sleep(wait)
		}
	}
	rep.Drained = quiesce(false)
	rep.Elapsed = time.Since(ck.start)
	rep.Violations = ck.violations
	rep.ViolationsTruncated = ck.truncated
	if opts.Metrics != nil {
		opts.Metrics.Violations.Store(int64(len(ck.violations)))
	}
	return rep, nil
}

// resolveWorker maps an event's target to a live worker id: the explicit
// id when given (which may legitimately be dead — the caller skips it),
// otherwise the worker index modulo the live worker list.
func resolveWorker(c *dsps.Cluster, ev Event) string {
	if ev.Worker != "" {
		return ev.Worker
	}
	ids := c.WorkerIDs()
	if len(ids) == 0 {
		return ""
	}
	idx := ev.WorkerIndex
	if idx < 0 {
		idx = -idx
	}
	return ids[idx%len(ids)]
}
