package dsps

import (
	"sync/atomic"
	"time"
)

// taskCounters holds the per-task atomic counters snapshots read without
// stopping the world. The per-tuple ones are staged by the executor and
// published in bulk (counterStage).
type taskCounters struct {
	executed   atomic.Int64 // tuples fully executed (bolts) or emitted batches (spouts)
	emitted    atomic.Int64 // tuples emitted downstream
	acked      atomic.Int64 // spout roots completed (spout tasks only)
	failed     atomic.Int64 // spout roots failed (spout tasks only)
	execNanos  atomic.Int64 // total execute latency incl. simulated cost
	queueNanos atomic.Int64 // total time tuples spent queued before execute
	completeNs atomic.Int64 // total complete latency of acked roots (spouts)
	dropped    atomic.Int64 // tuples dropped by fault injection
	batches    atomic.Int64 // data-plane batches sent downstream
	bpWaits    atomic.Int64 // batches that blocked at least once on backpressure
	ringParks  atomic.Int64 // times the executor parked on its ring waiter

	execHist     latencyHist // per-tuple execute latency distribution
	completeHist latencyHist // complete latency distribution (spouts)
}

// counterStage holds an executor's per-tuple counter updates in plain
// fields only its own goroutine touches. The executor publishes them when
// the coarse clock has moved since the last publication, so a snapshot
// lags a busy executor by at most a tick and a tuple, and before it can be
// held up — a park, a backpressured send, a stall fault, the end of a
// round of input batches — so an idle or blocked executor hides nothing.
type counterStage struct {
	pubNs int64 // coarse clock at the last publication

	executed, emitted, acked, failed int64
	execNs, queueNs, completeNs      int64
	execHist, completeHist           histStage
}

// publish adds the staged counts to tk's shared counters (a bolt's
// executed count to its node's too) and zeroes them.
//
//dsps:hotpath
func (s *counterStage) publish(tk *task, nowNs int64) {
	s.pubNs = nowNs
	c := &tk.counters
	if s.executed != 0 {
		c.executed.Add(s.executed)
		if tk.bolt != nil {
			tk.worker.node.executed.Add(s.executed)
		}
		s.executed = 0
		s.execHist.publish(&c.execHist)
	}
	if s.acked != 0 {
		c.acked.Add(s.acked)
		s.acked = 0
		s.completeHist.publish(&c.completeHist)
	}
	publishCount(&c.emitted, &s.emitted)
	publishCount(&c.failed, &s.failed)
	publishCount(&c.execNanos, &s.execNs)
	publishCount(&c.queueNanos, &s.queueNs)
	publishCount(&c.completeNs, &s.completeNs)
}

// publishCount adds a staged count to its counter and zeroes it.
//
//dsps:hotpath
func publishCount(c *atomic.Int64, staged *int64) {
	if *staged != 0 {
		c.Add(*staged)
		*staged = 0
	}
}

// TaskStats is a point-in-time snapshot of one task's counters.
type TaskStats struct {
	TaskID int
	// Topology names the owning topology (cluster-level snapshots span
	// every running topology).
	Topology  string
	Component string
	TaskIndex int
	WorkerID  string
	NodeID    string
	// IsSpout reports whether the task runs a spout (vs. a bolt).
	IsSpout bool
	// Retired reports a task drained and removed by a live scale-down; its
	// counters are frozen at their final values so snapshot totals stay
	// monotone across executor churn.
	Retired bool

	Executed int64
	Emitted  int64
	Acked    int64
	Failed   int64
	Dropped  int64
	// ExecLatency is the cumulative execute latency.
	ExecLatency time.Duration
	// QueueLatency is the cumulative time tuples waited in the input
	// queue.
	QueueLatency time.Duration
	// CompleteLatency is the cumulative spout complete latency.
	CompleteLatency time.Duration
	// QueueLen is the instantaneous input queue length.
	QueueLen int
	// Batches counts data-plane envelope batches this task sent downstream.
	Batches int64
	// BackpressureWaits counts batches that blocked at least once on a full
	// downstream queue before being delivered.
	BackpressureWaits int64
	// RingDepth is the instantaneous number of batches buffered across the
	// task's input rings.
	RingDepth int
	// RingParks counts how many times the executor found every input ring
	// empty and parked on its waiter.
	RingParks int64
	// ExecHist and CompleteHist are the latency distributions in the
	// engine's log-bucket layout (see HistogramQuantile / MergeHistograms).
	ExecHist     []int64
	CompleteHist []int64
}

// AvgExecLatency returns the mean execute latency, or 0 with no samples.
func (s TaskStats) AvgExecLatency() time.Duration {
	if s.Executed == 0 {
		return 0
	}
	return s.ExecLatency / time.Duration(s.Executed)
}

// AvgCompleteLatency returns the mean complete latency of acked roots.
func (s TaskStats) AvgCompleteLatency() time.Duration {
	if s.Acked == 0 {
		return 0
	}
	return s.CompleteLatency / time.Duration(s.Acked)
}

// WorkerStats aggregates the tasks of one worker process.
type WorkerStats struct {
	WorkerID string
	NodeID   string
	Tasks    []TaskStats

	Executed    int64
	Emitted     int64
	ExecLatency time.Duration
	QueueLen    int
	// Slowdown is the currently injected fault slowdown (1 = healthy).
	Slowdown float64
	// Misbehaving reports whether any fault is currently injected.
	Misbehaving bool
}

// AvgExecLatency returns the worker's mean execute latency.
func (s WorkerStats) AvgExecLatency() time.Duration {
	if s.Executed == 0 {
		return 0
	}
	return s.ExecLatency / time.Duration(s.Executed)
}

// NodeStats aggregates one simulated machine.
type NodeStats struct {
	NodeID  string
	Cores   int
	Workers []string

	Executed int64
	// Busy is the instantaneous number of executors mid-execute.
	Busy int
}

// ComponentStats aggregates every task of one component — live and
// retired — keyed by component name. Because scale events change which
// task indices exist, per-component aggregates are the series that stay
// comparable across an elastic run; per-task series come and go with the
// executors backing them.
type ComponentStats struct {
	// Topology names the owning topology.
	Topology string
	// Component is the aggregation key.
	Component string
	// IsSpout reports whether the component is a spout.
	IsSpout bool
	// Parallelism is the live executor count (retired tasks excluded).
	Parallelism int
	// Retired counts executors drained away by scale-downs.
	Retired int

	Executed int64
	Emitted  int64
	Acked    int64
	Failed   int64
	Dropped  int64
	// ExecLatency is the cumulative execute latency over all executors.
	ExecLatency time.Duration
	// QueueLatency is the cumulative input-queue wait over all executors.
	QueueLatency time.Duration
	// CompleteLatency is the cumulative complete latency (spouts).
	CompleteLatency time.Duration
	// QueueLen sums the instantaneous queue lengths of live executors.
	QueueLen int
	// Batches and BackpressureWaits sum the data-plane counters.
	Batches           int64
	BackpressureWaits int64
	// RingDepth sums the live executors' buffered ring batches; RingParks
	// sums their waiter parks.
	RingDepth int
	RingParks int64
	// ExecHist and CompleteHist are the merged latency distributions.
	ExecHist     []int64
	CompleteHist []int64
}

// BuildComponentStats folds per-task stats into per-component aggregates,
// exactly as Cluster.Snapshot does for its own tasks. It exists for
// consumers that reassemble snapshots from shipped task stats — the
// cluster wire protocol sends tasks and rebuilds the component aggregates
// on the receiving side instead of paying for them twice on the wire.
// Components come out in first-appearance order (deterministic: tasks are
// snapshotted in declaration-then-spawn order per topology).
func BuildComponentStats(tasks []TaskStats) []ComponentStats {
	idx := map[string]int{}
	var out []ComponentStats
	for _, ts := range tasks {
		key := ts.Topology + "\x00" + ts.Component
		i, ok := idx[key]
		if !ok {
			i = len(out)
			idx[key] = i
			out = append(out, ComponentStats{
				Topology:  ts.Topology,
				Component: ts.Component,
				IsSpout:   ts.IsSpout,
			})
		}
		cs := &out[i]
		if ts.Retired {
			cs.Retired++
		} else {
			cs.Parallelism++
			cs.QueueLen += ts.QueueLen
			cs.RingDepth += ts.RingDepth
		}
		cs.RingParks += ts.RingParks
		cs.Executed += ts.Executed
		cs.Emitted += ts.Emitted
		cs.Acked += ts.Acked
		cs.Failed += ts.Failed
		cs.Dropped += ts.Dropped
		cs.ExecLatency += ts.ExecLatency
		cs.QueueLatency += ts.QueueLatency
		cs.CompleteLatency += ts.CompleteLatency
		cs.Batches += ts.Batches
		cs.BackpressureWaits += ts.BackpressureWaits
		cs.ExecHist = MergeHistograms(cs.ExecHist, ts.ExecHist)
		cs.CompleteHist = MergeHistograms(cs.CompleteHist, ts.CompleteHist)
	}
	return out
}

// ScaleStats summarizes one topology's elastic-runtime activity.
type ScaleStats struct {
	// Topology names the owning topology.
	Topology string
	// Ups and Downs count executors added and retired by scale events.
	Ups   int64
	Downs int64
	// RouteEpoch is the current fan-out splice generation.
	RouteEpoch uint64
	// Retired is the number of retired tasks still carried in snapshots.
	Retired int
}

// AckerStats is a point-in-time view of one topology's acker.
type AckerStats struct {
	// Topology names the owning topology.
	Topology string
	// InFlight is the number of tracked spout roots whose completion has
	// not yet been handed back to their spout.
	InFlight int
}

// Snapshot is a full-cluster metrics snapshot.
type Snapshot struct {
	At      time.Time
	Tasks   []TaskStats
	Workers []WorkerStats
	Nodes   []NodeStats
	// Components aggregates Tasks per component name — the series that
	// stay comparable across scale events (see ComponentStats).
	Components []ComponentStats
	// Acker holds one entry per running topology, in submit order.
	Acker []AckerStats
	// Scale holds one elastic-runtime summary per topology, submit order.
	Scale []ScaleStats
}

// TaskByID returns the stats of one task, or a zero value and false.
func (s *Snapshot) TaskByID(id int) (TaskStats, bool) {
	for _, t := range s.Tasks {
		if t.TaskID == id {
			return t, true
		}
	}
	return TaskStats{}, false
}

// ComponentTasks returns the stats of every live task of a component,
// ordered by task index. Retired tasks are excluded: callers map these
// positionally onto grouping fan-out tables and ratio vectors, which only
// cover live executors.
func (s *Snapshot) ComponentTasks(component string) []TaskStats {
	var out []TaskStats
	for _, t := range s.Tasks {
		if t.Component == component && !t.Retired {
			out = append(out, t)
		}
	}
	return out
}

// TotalAcked sums completed roots over all spout tasks.
func (s *Snapshot) TotalAcked() int64 {
	var total int64
	for _, t := range s.Tasks {
		total += t.Acked
	}
	return total
}

// TotalFailed sums failed roots over all spout tasks.
func (s *Snapshot) TotalFailed() int64 {
	var total int64
	for _, t := range s.Tasks {
		total += t.Failed
	}
	return total
}
