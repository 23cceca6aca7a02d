// Package telemetry turns raw engine counters into the multilevel runtime
// statistics the paper's DRNN consumes: per measurement window it derives
// tuple-level rates, task-level processing times, worker-level queueing and
// machine-level co-location interference features for every worker, and
// assembles them into timeseries.Series for training and online prediction.
package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"predstream/internal/dsps"
	"predstream/internal/timeseries"
)

// WindowStats is one worker's multilevel statistics over one measurement
// window (the delta between two cluster snapshots).
type WindowStats struct {
	WorkerID string
	NodeID   string
	Start    time.Time
	End      time.Time

	// Tuple level.
	ExecRate float64 // tuples executed per second by the worker's tasks
	EmitRate float64 // tuples emitted per second

	// Task level.
	AvgExecMs  float64 // mean per-tuple processing time in ms
	AvgQueueMs float64 // mean queueing delay in ms

	// Worker level.
	QueueLen    float64 // input queue backlog at window end
	Misbehaving bool    // whether a fault was injected (ground truth, not a feature)

	// Machine level (interference of co-located workers).
	CoWorkers   float64 // co-located workers on the same node
	CoExecRate  float64 // their aggregate execute rate
	CoAvgExecMs float64 // their mean processing time
	NodeBusy    float64 // instantaneous executors mid-execute on the node
}

// Sampler converts a stream of cluster snapshots into per-worker
// WindowStats series. Call Sample at a fixed period; the first call only
// establishes the baseline. An optional component filter restricts which
// tasks contribute to a worker's statistics — the controller filters to
// the stage it steers so co-hosted cheap sinks don't dilute the signal.
type Sampler struct {
	mu         sync.Mutex
	prev       *dsps.Snapshot
	series     map[string][]WindowStats
	maxLen     int
	components map[string]bool // nil = all components
}

// NewSampler returns a sampler retaining at most maxLen windows per worker
// (0 means unbounded), with all components contributing.
func NewSampler(maxLen int) *Sampler {
	return &Sampler{series: make(map[string][]WindowStats), maxLen: maxLen}
}

// NewSamplerFiltered returns a sampler whose worker statistics aggregate
// only tasks of the named components. Workers hosting none of them record
// no windows.
func NewSamplerFiltered(maxLen int, components ...string) *Sampler {
	s := NewSampler(maxLen)
	if len(components) > 0 {
		s.components = make(map[string]bool, len(components))
		for _, c := range components {
			s.components[c] = true
		}
	}
	return s
}

// Sample ingests a snapshot, appending one window per worker when a
// previous snapshot exists.
func (s *Sampler) Sample(snap *dsps.Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	prev := s.prev
	s.prev = snap
	if prev == nil {
		return
	}
	dt := snap.At.Sub(prev.At).Seconds()
	if dt <= 0 {
		return
	}
	type workerDelta struct {
		execRate, emitRate, avgExecMs, avgQueueMs, queueLen float64
	}
	// Aggregate task deltas per worker twice: `perWorker` honors the
	// component filter (it defines the worker's own statistics and which
	// workers record windows), while `allWork` spans every task of every
	// topology — machine-level co-location features must see neighbours
	// the filter excludes, or cross-topology interference would be
	// invisible to the predictor.
	type agg struct {
		exec, emit        int64
		execLat, queueLat time.Duration
		queueLen          int
	}
	perWorker := map[string]*agg{}
	allWork := map[string]*agg{}
	allNodeOf := map[string]string{}
	for _, ts := range snap.Tasks {
		pts, ok := prev.TaskByID(ts.TaskID)
		if !ok {
			continue
		}
		u := allWork[ts.WorkerID]
		if u == nil {
			u = &agg{}
			allWork[ts.WorkerID] = u
			allNodeOf[ts.WorkerID] = ts.NodeID
		}
		u.exec += ts.Executed - pts.Executed
		u.emit += ts.Emitted - pts.Emitted
		u.execLat += ts.ExecLatency - pts.ExecLatency
		if s.components != nil && !s.components[ts.Component] {
			continue
		}
		a := perWorker[ts.WorkerID]
		if a == nil {
			a = &agg{}
			perWorker[ts.WorkerID] = a
		}
		a.exec += ts.Executed - pts.Executed
		a.emit += ts.Emitted - pts.Emitted
		a.execLat += ts.ExecLatency - pts.ExecLatency
		a.queueLat += ts.QueueLatency - pts.QueueLatency
		a.queueLen += ts.QueueLen
	}
	deltas := map[string]workerDelta{}
	nodeOf := map[string]string{}
	misbehaving := map[string]bool{}
	for _, w := range snap.Workers {
		a, ok := perWorker[w.WorkerID]
		if !ok {
			continue
		}
		var d workerDelta
		exec := float64(a.exec)
		d.execRate = exec / dt
		d.emitRate = float64(a.emit) / dt
		if exec > 0 {
			d.avgExecMs = a.execLat.Seconds() * 1000 / exec
			d.avgQueueMs = a.queueLat.Seconds() * 1000 / exec
		} else if hist := s.series[w.WorkerID]; len(hist) > 0 {
			// No executions this window (e.g. the worker is bypassed):
			// carry the last estimate forward — absence of observations is
			// not evidence of health.
			d.avgExecMs = hist[len(hist)-1].AvgExecMs
			d.avgQueueMs = hist[len(hist)-1].AvgQueueMs
		}
		d.queueLen = float64(a.queueLen)
		deltas[w.WorkerID] = d
		nodeOf[w.WorkerID] = w.NodeID
		misbehaving[w.WorkerID] = w.Misbehaving
	}
	nodeBusy := map[string]float64{}
	for _, n := range snap.Nodes {
		nodeBusy[n.NodeID] = float64(n.Busy)
	}
	for id, d := range deltas {
		node := nodeOf[id]
		// Co-location features span every worker on the node — including
		// other topologies' workers the component filter excludes.
		var coWorkers, coExec, coLatSum float64
		coCount := 0
		for other, u := range allWork {
			if other == id || allNodeOf[other] != node {
				continue
			}
			coWorkers++
			coExec += float64(u.exec) / dt
			if u.exec > 0 {
				coLatSum += u.execLat.Seconds() * 1000 / float64(u.exec)
				coCount++
			}
		}
		w := WindowStats{
			WorkerID:    id,
			NodeID:      node,
			Start:       prev.At,
			End:         snap.At,
			ExecRate:    d.execRate,
			EmitRate:    d.emitRate,
			AvgExecMs:   d.avgExecMs,
			AvgQueueMs:  d.avgQueueMs,
			QueueLen:    d.queueLen,
			Misbehaving: misbehaving[id],
			CoWorkers:   coWorkers,
			CoExecRate:  coExec,
			NodeBusy:    nodeBusy[node],
		}
		if coCount > 0 {
			w.CoAvgExecMs = coLatSum / float64(coCount)
		}
		s.series[id] = append(s.series[id], w)
		if s.maxLen > 0 && len(s.series[id]) > s.maxLen {
			s.series[id] = s.series[id][len(s.series[id])-s.maxLen:]
		}
	}
}

// Workers returns the worker ids with at least one window, sorted.
func (s *Sampler) Workers() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.series))
	//dspslint:ignore maporder keys are sorted below before returning, so the map order never escapes
	for id := range s.series {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Series returns a copy of one worker's windows.
func (s *Sampler) Series(workerID string) []WindowStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	src := s.series[workerID]
	out := make([]WindowStats, len(src))
	copy(out, src)
	return out
}

// TargetMetric selects which performance metric the predictor forecasts.
type TargetMetric int

const (
	// TargetProcTime predicts the mean per-tuple processing time (ms),
	// the paper's primary prediction target.
	TargetProcTime TargetMetric = iota
	// TargetThroughput predicts the worker's execute rate (tuples/s).
	TargetThroughput
)

// String implements fmt.Stringer.
func (m TargetMetric) String() string {
	switch m {
	case TargetProcTime:
		return "proc-time-ms"
	case TargetThroughput:
		return "throughput-tps"
	default:
		return fmt.Sprintf("TargetMetric(%d)", int(m))
	}
}

// FeatureConfig selects which statistics enter the feature vector.
type FeatureConfig struct {
	// Interference includes the machine-level co-located-worker features,
	// the paper's key modelling choice (ablated in E4).
	Interference bool
}

// Features assembles one window's feature vector.
func Features(w WindowStats, cfg FeatureConfig) []float64 {
	out := []float64{w.ExecRate, w.EmitRate, w.AvgExecMs, w.AvgQueueMs, w.QueueLen}
	if cfg.Interference {
		out = append(out, w.CoWorkers, w.CoExecRate, w.CoAvgExecMs, w.NodeBusy)
	}
	return out
}

// Target extracts the chosen target metric from a window.
func Target(w WindowStats, metric TargetMetric) float64 {
	switch metric {
	case TargetThroughput:
		return w.ExecRate
	default:
		return w.AvgExecMs
	}
}

// ToSeries converts a worker's windows into a timeseries.Series for the
// predictors.
func ToSeries(windows []WindowStats, metric TargetMetric, cfg FeatureConfig) *timeseries.Series {
	s := &timeseries.Series{Points: make([]timeseries.Point, len(windows))}
	for i, w := range windows {
		s.Points[i] = timeseries.Point{
			Features: Features(w, cfg),
			Target:   Target(w, metric),
		}
	}
	return s
}
