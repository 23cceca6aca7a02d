package dsps

import (
	"sync/atomic"
	"time"
)

// taskCounters holds the per-task atomic counters the executor updates on
// its hot path. Snapshots read them without stopping the world.
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
	ringParks  atomic.Int64 // times the ring-plane executor parked on its waiter

	execHist     latencyHist // per-tuple execute latency distribution
	completeHist latencyHist // complete latency distribution (spouts)
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
	// task's input rings (ring plane only; 0 on the channel plane).
	RingDepth int
	// RingParks counts how many times the ring-plane executor found every
	// input ring empty and parked on its waiter.
	RingParks int64
	// ExecHist and CompleteHist are the latency distributions in the
	// engine's log-bucket layout (see HistogramQuantile / MergeHistograms).
	ExecHist     []int64
	CompleteHist []int64
}

// ExecQuantile estimates the q-quantile of per-tuple execute latency.
func (s TaskStats) ExecQuantile(q float64) time.Duration {
	return HistogramQuantile(s.ExecHist, q)
}

// CompleteQuantile estimates the q-quantile of complete latency (spout
// tasks only).
func (s TaskStats) CompleteQuantile(q float64) time.Duration {
	return HistogramQuantile(s.CompleteHist, q)
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
	// sums their waiter parks (ring plane only).
	RingDepth int
	RingParks int64
	// ExecHist and CompleteHist are the merged latency distributions.
	ExecHist     []int64
	CompleteHist []int64
}

// ExecQuantile estimates the q-quantile of per-tuple execute latency
// across the component's executors.
func (s ComponentStats) ExecQuantile(q float64) time.Duration {
	return HistogramQuantile(s.ExecHist, q)
}

// CompleteQuantile estimates the q-quantile of complete latency (spout
// components only).
func (s ComponentStats) CompleteQuantile(q float64) time.Duration {
	return HistogramQuantile(s.CompleteHist, q)
}

// AvgExecLatency returns the component's mean execute latency.
func (s ComponentStats) AvgExecLatency() time.Duration {
	if s.Executed == 0 {
		return 0
	}
	return s.ExecLatency / time.Duration(s.Executed)
}

// BuildComponentStats folds per-task stats into per-component aggregates,
// exactly as Cluster.Snapshot does for its own tasks. It exists for
// consumers that reassemble snapshots from shipped task stats — the
// cluster wire protocol sends tasks and rebuilds the component aggregates
// on the receiving side instead of paying for them twice on the wire.
func BuildComponentStats(tasks []TaskStats) []ComponentStats {
	return buildComponentStats(tasks)
}

// buildComponentStats folds per-task stats into per-component aggregates,
// in first-appearance order (deterministic: tasks are snapshotted in
// declaration-then-spawn order per topology).
func buildComponentStats(tasks []TaskStats) []ComponentStats {
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

// ComponentByName returns the aggregate stats of one component, or a zero
// value and false.
func (s *Snapshot) ComponentByName(topology, component string) (ComponentStats, bool) {
	for _, cs := range s.Components {
		if cs.Topology == topology && cs.Component == component {
			return cs, true
		}
	}
	return ComponentStats{}, false
}

// WorkerByID returns the stats of one worker, or a zero value and false.
func (s *Snapshot) WorkerByID(id string) (WorkerStats, bool) {
	for _, w := range s.Workers {
		if w.WorkerID == id {
			return w, true
		}
	}
	return WorkerStats{}, false
}

// TotalExecuted sums executed tuples over all bolt tasks.
func (s *Snapshot) TotalExecuted() int64 {
	var total int64
	for _, t := range s.Tasks {
		total += t.Executed
	}
	return total
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

// CompleteQuantile estimates the q-quantile of complete latency across
// every spout task in the snapshot.
func (s *Snapshot) CompleteQuantile(q float64) time.Duration {
	var hists [][]int64
	for _, t := range s.Tasks {
		if len(t.CompleteHist) > 0 {
			hists = append(hists, t.CompleteHist)
		}
	}
	return HistogramQuantile(MergeHistograms(hists...), q)
}
