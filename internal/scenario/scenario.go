// Package scenario is the one rig behind the claim-3 runs: the reliability
// experiments (E6/E7, E6s, E10, E10r, E11, E13) and the control examples.
// A run builds Windowed URL Count on a fixed two-node cluster, replays a
// fault schedule against the workers that host the parse stage, optionally
// steers the spout→parse edge with a controller, and returns a per-step
// trace plus one aggregate over its measurement window.
package scenario

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"predstream/internal/apps/urlcount"
	"predstream/internal/chaos"
	"predstream/internal/core"
	"predstream/internal/dsps"
	"predstream/internal/workload"
)

// The cluster every scenario runs on. Parse dominates the pipeline, so
// bypassing a slow parse task restores throughput; count carries no
// simulated cost because its fields grouping cannot bypass (DESIGN.md).
// 5 ms clears the ~2 ms sleep-granularity floor, so a slowdown dominates
// timer noise. Shallow queues make a slow worker's backpressure reach the
// spout within the warmup, so the measurement sees the degraded steady
// state rather than the queue-filling transient.
const (
	nodes        = 2
	coresPerNode = 4
	parseCost    = 5 * time.Millisecond
	window       = 2 * time.Second
	slide        = 500 * time.Millisecond
	queueSize    = 64
	ackTimeout   = 10 * time.Second

	spout = "urls"
	stage = "parse" // the controlled stage, whose workers faults target
)

// Spec describes one run. Zero Workers and MaxSpoutPending take the noted
// defaults; Period and Measure must be positive.
type Spec struct {
	// Workers is the worker-process count; default 4.
	Workers int
	// Seed drives the URL stream and the cluster.
	Seed int64
	// Shape paces the spout; nil emits as fast as backpressure allows.
	Shape workload.RateShape
	// ParseTasks is the parse stage's starting parallelism; 0 keeps the
	// application default of 4.
	ParseTasks int
	// MaxSpoutPending caps in-flight roots; default 256.
	MaxSpoutPending int
	// Period is the tick: each tick fires the due fault events, steps the
	// controller and records one Step.
	Period time.Duration
	// Warmup precedes the measurement window of length Measure; both round
	// up to whole ticks, and the run ends with the window.
	Warmup, Measure time.Duration
	// Control, when set, routes spout→parse through a dynamic grouping
	// that a controller with this configuration steers; nil runs the
	// static shuffle baseline. With NewPredictor set, the predictors are
	// fitted at the first tick where every worker has MinHistory windows.
	Control *core.Config
	// Faults is the fault schedule: KindInject and KindClear events whose
	// WorkerIndex indexes Victims and whose At is an offset from the start
	// of the run. An event fires at the first tick at or after At.
	Faults chaos.Script
}

// Step is one tick of a run.
type Step struct {
	// At is the tick's snapshot time since the run's first snapshot.
	At time.Duration
	// AckedTPS is the rate of acked roots since the previous snapshot.
	AckedTPS float64
	// Faults lists the victims faulted when the snapshot was taken.
	Faults []string
	// Ratios is the dynamic grouping's split by parse task index after
	// the controller stepped; nil for the static baseline.
	Ratios []float64
	// Report is the controller's step report; zero for the static
	// baseline.
	Report core.StepReport
}

// Result is a finished run.
type Result struct {
	// Placement is the worker hosting each parse task, by task index, when
	// the run started.
	Placement []string
	// Victims are the workers fault events can target (see Victims).
	Victims []string
	// Trace holds one Step per tick.
	Trace []Step
	Summary
}

// Summary aggregates a run. Throughput, loss, latency and the model share
// cover the measurement window; the scale counts cover the whole run.
type Summary struct {
	// ThroughputTPS and FailedTPS are acked and failed roots per second.
	ThroughputTPS, FailedTPS float64
	// AvgLatencyMs and P99LatencyMs summarize the complete latency of the
	// roots acked in the window.
	AvgLatencyMs, P99LatencyMs float64
	// UsedModelShare is the share of controller steps whose predictions
	// came from fitted predictors.
	UsedModelShare float64
	// ScaleUps and ScaleDowns count executors added and retired;
	// FinalParallelism is the parse stage's executor count at the end.
	ScaleUps, ScaleDowns int64
	FinalParallelism     int
}

// Victims returns the workers a fault schedule can target, in the order
// WorkerIndex counts them: every worker that hosts a parse task but not
// the spout, ordered by its first parse task's index. Sparing the spout's
// worker keeps the source alive; the paper's misbehaving workers are
// processing workers.
func Victims(snap *dsps.Snapshot) []string {
	skip := map[string]bool{}
	for _, ts := range snap.ComponentTasks(spout) {
		skip[ts.WorkerID] = true
	}
	var out []string
	for _, w := range placement(snap) {
		if !skip[w] {
			skip[w] = true
			out = append(out, w)
		}
	}
	return out
}

// placement returns the worker hosting each parse task, by task index.
func placement(snap *dsps.Snapshot) []string {
	tasks := snap.ComponentTasks(stage)
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].TaskIndex < tasks[j].TaskIndex })
	out := make([]string, len(tasks))
	for i, ts := range tasks {
		out[i] = ts.WorkerID
	}
	return out
}

// Run executes one scenario and returns its trace and aggregate.
func Run(spec Spec) (*Result, error) {
	if spec.Period <= 0 || spec.Measure <= 0 || spec.Warmup < 0 {
		return nil, fmt.Errorf("scenario: need Period > 0, Measure > 0, Warmup >= 0; have %v, %v, %v",
			spec.Period, spec.Measure, spec.Warmup)
	}
	if spec.Workers <= 0 {
		spec.Workers = 4
	}
	if spec.MaxSpoutPending <= 0 {
		spec.MaxSpoutPending = 256
	}
	topo, _, dg, err := urlcount.Build(urlcount.Config{
		Dynamic:    spec.Control != nil,
		Shape:      spec.Shape,
		ParseTasks: spec.ParseTasks,
		ParseCost:  parseCost,
		CountCost:  -1,
		Window:     window,
		Slide:      slide,
		Seed:       spec.Seed,
	})
	if err != nil {
		return nil, err
	}
	cluster := dsps.NewCluster(dsps.ClusterConfig{
		Nodes:           nodes,
		CoresPerNode:    coresPerNode,
		Seed:            spec.Seed,
		AckTimeout:      ackTimeout,
		QueueSize:       queueSize,
		MaxSpoutPending: spec.MaxSpoutPending,
	})
	if err := cluster.Submit(topo, dsps.SubmitConfig{Workers: spec.Workers}); err != nil {
		return nil, err
	}
	defer cluster.Shutdown()

	first := cluster.Snapshot()
	res := &Result{Placement: placement(first), Victims: Victims(first)}
	events, err := schedule(spec.Faults, len(res.Victims))
	if err != nil {
		return nil, err
	}
	var ctrl *core.Controller
	if spec.Control != nil {
		ctrl, err = core.NewController(cluster,
			[]core.ControlTarget{{Component: stage, Grouping: dg}}, *spec.Control)
		if err != nil {
			return nil, err
		}
	}
	fit := ctrl != nil && spec.Control.NewPredictor != nil

	// Ticks are counted, not timed: the measurement window opens at tick
	// warm and the run ends at tick last, however late the ticks arrive.
	warm := int((spec.Warmup + spec.Period - 1) / spec.Period)
	last := warm + int((spec.Measure+spec.Period-1)/spec.Period)
	faulted := map[string]bool{}
	before, prev := first, first
	ticker := time.NewTicker(spec.Period)
	defer ticker.Stop()
	for k := 1; k <= last; k++ {
		<-ticker.C
		for len(events) > 0 && events[0].At <= time.Duration(k)*spec.Period {
			ev := events[0]
			events = events[1:]
			w := res.Victims[ev.WorkerIndex]
			if ev.Kind == chaos.KindInject {
				if err := cluster.InjectFault(w, ev.Fault); err != nil {
					return nil, err
				}
			} else {
				cluster.ClearFault(w)
			}
			faulted[w] = ev.Kind == chaos.KindInject
		}
		var st Step
		if ctrl != nil {
			if st.Report, err = ctrl.Step(); err != nil {
				return nil, err
			}
			if fit {
				err := ctrl.FitPredictors()
				if err != nil && !errors.Is(err, core.ErrShortHistory) {
					return nil, err
				}
				fit = err != nil
			}
			st.Ratios = dg.Ratios()
		}
		snap := cluster.Snapshot()
		st.At = snap.At.Sub(first.At)
		st.AckedTPS = float64(snap.TotalAcked()-prev.TotalAcked()) / snap.At.Sub(prev.At).Seconds()
		for _, w := range res.Victims {
			if faulted[w] {
				st.Faults = append(st.Faults, w)
			}
		}
		res.Trace = append(res.Trace, st)
		if k == warm {
			before = snap
		}
		if k > warm && st.Report.UsedModel {
			res.UsedModelShare++
		}
		prev = snap
	}

	dt := prev.At.Sub(before.At).Seconds()
	acked := prev.TotalAcked() - before.TotalAcked()
	res.ThroughputTPS = float64(acked) / dt
	res.FailedTPS = float64(prev.TotalFailed()-before.TotalFailed()) / dt
	if acked > 0 {
		res.AvgLatencyMs, res.P99LatencyMs = completeLatencyMs(before, prev, acked)
	}
	res.UsedModelShare /= float64(last - warm)
	for _, sc := range prev.Scale {
		res.ScaleUps += sc.Ups
		res.ScaleDowns += sc.Downs
	}
	res.FinalParallelism = cluster.ComponentParallelism(topo.Name, stage)
	return res, nil
}

// schedule checks a fault script against the victim count and returns its
// events in firing order.
func schedule(s chaos.Script, victims int) ([]chaos.Event, error) {
	events := slices.Clone(s.Events)
	for _, ev := range events {
		switch {
		case ev.Kind != chaos.KindInject && ev.Kind != chaos.KindClear:
			return nil, fmt.Errorf("scenario: event %v: only inject and clear events are supported", ev)
		case ev.Worker != "":
			return nil, fmt.Errorf("scenario: event %v: target a victim by WorkerIndex, not by worker id", ev)
		case ev.WorkerIndex < 0 || ev.WorkerIndex >= victims:
			return nil, fmt.Errorf("scenario: event %v: worker index out of range, %d victims", ev, victims)
		}
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
	return events, nil
}

// completeLatencyMs returns the mean and 99th-percentile complete latency,
// in milliseconds, of the roots acked between two snapshots of one
// cluster, from the spout's cumulative latency and histogram deltas.
func completeLatencyMs(before, after *dsps.Snapshot, acked int64) (avg, p99 float64) {
	b, a := spoutStats(before), spoutStats(after)
	hist := slices.Clone(a.CompleteHist)
	for i, n := range b.CompleteHist {
		hist[i] -= n
	}
	return (a.CompleteLatency - b.CompleteLatency).Seconds() * 1000 / float64(acked),
		dsps.HistogramQuantile(hist, 0.99).Seconds() * 1000
}

// spoutStats returns the spout component's aggregate.
func spoutStats(snap *dsps.Snapshot) dsps.ComponentStats {
	for _, cs := range snap.Components {
		if cs.Component == spout {
			return cs
		}
	}
	return dsps.ComponentStats{}
}
