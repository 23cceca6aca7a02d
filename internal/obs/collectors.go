package obs

import (
	"runtime"
	"sort"
	"strconv"

	"predstream/internal/chaos"
	"predstream/internal/core"
	"predstream/internal/dsps"
	"predstream/internal/telemetry"
)

// Collectors bridging the repo's subsystems into the registry. All of
// them work from point-in-time snapshots taken at scrape time — no
// collector adds locking or allocation to any engine hot path, and every
// collector emits its samples in a deterministic order (snapshot order,
// or sorted keys where the source is a map).

// taskLabels renders the identity labels shared by per-task series.
func taskLabels(t dsps.TaskStats) []Label {
	return []Label{
		{Name: "topology", Value: t.Topology},
		{Name: "component", Value: t.Component},
		{Name: "task", Value: strconv.Itoa(t.TaskID)},
		{Name: "worker", Value: t.WorkerID},
	}
}

// histBoundsSeconds caches the engine's latency-histogram bucket bounds
// converted to seconds, the unit Prometheus latency histograms use.
var histBoundsSeconds = func() []float64 {
	bounds := dsps.HistogramBucketBounds()
	out := make([]float64, len(bounds))
	for i, b := range bounds {
		out[i] = b.Seconds()
	}
	return out
}()

// latencyHistData converts an engine histogram snapshot plus its
// cumulative-duration sum into a HistogramData.
func latencyHistData(counts []int64, sumSeconds float64) *HistogramData {
	h := &HistogramData{
		Bounds: histBoundsSeconds,
		Counts: make([]uint64, len(histBoundsSeconds)+1),
		Sum:    sumSeconds,
	}
	for i, c := range counts {
		if i < len(h.Counts) && c > 0 {
			h.Counts[i] = uint64(c)
		}
	}
	return h
}

// Snapshotter is any source of engine metric snapshots: *dsps.Cluster
// (the local engine), or internal/cluster's Coordinator, whose merged
// fleet snapshot carries every remote worker's shipped metrics. The
// collector below is transport-agnostic — remote metrics appear on
// /metrics through exactly the same families as local ones.
type Snapshotter interface {
	// Snapshot captures the current engine (or fleet) metrics.
	Snapshot() *dsps.Snapshot
}

// NewClusterCollector returns a Collector exposing the engine's task,
// worker, node, acker, and trace statistics from the source's Snapshot
// (a local cluster or a coordinator's merged fleet view). See
// docs/OBSERVABILITY.md for the full metric catalog.
func NewClusterCollector(c Snapshotter) Collector {
	return CollectorFunc(func() []Family {
		snap := c.Snapshot()

		counter := func(name, help string) Family {
			return Family{Name: name, Help: help, Type: TypeCounter}
		}
		gauge := func(name, help string) Family {
			return Family{Name: name, Help: help, Type: TypeGauge}
		}
		executed := counter("predstream_task_executed_total", "Tuples fully executed by the task.")
		emitted := counter("predstream_task_emitted_total", "Tuples emitted downstream by the task.")
		acked := counter("predstream_task_acked_total", "Spout roots completed successfully (spout tasks).")
		failed := counter("predstream_task_failed_total", "Spout roots failed or timed out (spout tasks).")
		dropped := counter("predstream_task_dropped_total", "Tuples dropped by fault injection at the task.")
		batches := counter("predstream_task_batches_total", "Data-plane envelope batches the task sent downstream.")
		bpWaits := counter("predstream_task_backpressure_waits_total", "Batches that blocked at least once on a full downstream queue.")
		queueLen := gauge("predstream_task_queue_length", "Instantaneous input queue length (reservation-accurate tuples).")
		ringDepth := gauge("predstream_ring_depth", "Batches buffered across the task's input SPSC rings (ring plane only).")
		ringParks := counter("predstream_ring_parks_total", "Times the ring-plane executor found every input ring empty and parked.")
		execHist := Family{Name: "predstream_task_exec_latency_seconds", Help: "Per-tuple execute latency distribution.", Type: TypeHistogram}
		completeHist := Family{Name: "predstream_spout_complete_latency_seconds", Help: "Complete latency distribution of acked roots (spout tasks).", Type: TypeHistogram}

		for _, t := range snap.Tasks {
			if t.Retired {
				// Retired executors would pin stale per-task series forever;
				// their final counters live on in the component aggregates.
				continue
			}
			ls := taskLabels(t)
			executed.Samples = append(executed.Samples, Sample{Labels: ls, Value: float64(t.Executed)})
			emitted.Samples = append(emitted.Samples, Sample{Labels: ls, Value: float64(t.Emitted)})
			dropped.Samples = append(dropped.Samples, Sample{Labels: ls, Value: float64(t.Dropped)})
			batches.Samples = append(batches.Samples, Sample{Labels: ls, Value: float64(t.Batches)})
			bpWaits.Samples = append(bpWaits.Samples, Sample{Labels: ls, Value: float64(t.BackpressureWaits)})
			if t.IsSpout {
				acked.Samples = append(acked.Samples, Sample{Labels: ls, Value: float64(t.Acked)})
				failed.Samples = append(failed.Samples, Sample{Labels: ls, Value: float64(t.Failed)})
				completeHist.Samples = append(completeHist.Samples, Sample{
					Labels: ls,
					Hist:   latencyHistData(t.CompleteHist, t.CompleteLatency.Seconds()),
				})
			} else {
				queueLen.Samples = append(queueLen.Samples, Sample{Labels: ls, Value: float64(t.QueueLen)})
				ringDepth.Samples = append(ringDepth.Samples, Sample{Labels: ls, Value: float64(t.RingDepth)})
				ringParks.Samples = append(ringParks.Samples, Sample{Labels: ls, Value: float64(t.RingParks)})
				execHist.Samples = append(execHist.Samples, Sample{
					Labels: ls,
					Hist:   latencyHistData(t.ExecHist, t.ExecLatency.Seconds()),
				})
			}
		}

		// Component aggregates are the series that stay comparable across
		// scale events: task-level series come and go with executor churn,
		// component-level counters fold live and retired executors together
		// and remain monotone.
		compExecuted := counter("predstream_component_executed_total", "Tuples executed by the component (live + retired executors).")
		compEmitted := counter("predstream_component_emitted_total", "Tuples emitted downstream by the component.")
		compAcked := counter("predstream_component_acked_total", "Spout roots completed (spout components).")
		compFailed := counter("predstream_component_failed_total", "Spout roots failed or timed out (spout components).")
		compDropped := counter("predstream_component_dropped_total", "Tuples dropped at the component (faults and forced drains).")
		compParallelism := gauge("predstream_component_parallelism", "Live executor count of the component.")
		compRetired := counter("predstream_component_retired_executors_total", "Executors drained away from the component by scale-downs.")
		compQueueLen := gauge("predstream_component_queue_length", "Summed input queue length across the component's live executors.")
		compExecHist := Family{Name: "predstream_component_exec_latency_seconds", Help: "Per-tuple execute latency distribution across the component's executors.", Type: TypeHistogram}
		for _, cs := range snap.Components {
			ls := []Label{
				{Name: "topology", Value: cs.Topology},
				{Name: "component", Value: cs.Component},
			}
			compExecuted.Samples = append(compExecuted.Samples, Sample{Labels: ls, Value: float64(cs.Executed)})
			compEmitted.Samples = append(compEmitted.Samples, Sample{Labels: ls, Value: float64(cs.Emitted)})
			compDropped.Samples = append(compDropped.Samples, Sample{Labels: ls, Value: float64(cs.Dropped)})
			compParallelism.Samples = append(compParallelism.Samples, Sample{Labels: ls, Value: float64(cs.Parallelism)})
			compRetired.Samples = append(compRetired.Samples, Sample{Labels: ls, Value: float64(cs.Retired)})
			if cs.IsSpout {
				compAcked.Samples = append(compAcked.Samples, Sample{Labels: ls, Value: float64(cs.Acked)})
				compFailed.Samples = append(compFailed.Samples, Sample{Labels: ls, Value: float64(cs.Failed)})
			} else {
				compQueueLen.Samples = append(compQueueLen.Samples, Sample{Labels: ls, Value: float64(cs.QueueLen)})
				compExecHist.Samples = append(compExecHist.Samples, Sample{
					Labels: ls,
					Hist:   latencyHistData(cs.ExecHist, cs.ExecLatency.Seconds()),
				})
			}
		}

		scaleUps := counter("predstream_scale_ups_total", "Executors added by live scale-up events.")
		scaleDowns := counter("predstream_scale_downs_total", "Executors retired by live scale-down events.")
		routeEpoch := counter("predstream_scale_route_epoch", "Fan-out splice generation of the topology's routing tables.")
		scaleRetired := gauge("predstream_scale_retired_tasks", "Retired executors still carried in snapshots.")
		for _, sc := range snap.Scale {
			ls := []Label{{Name: "topology", Value: sc.Topology}}
			scaleUps.Samples = append(scaleUps.Samples, Sample{Labels: ls, Value: float64(sc.Ups)})
			scaleDowns.Samples = append(scaleDowns.Samples, Sample{Labels: ls, Value: float64(sc.Downs)})
			routeEpoch.Samples = append(routeEpoch.Samples, Sample{Labels: ls, Value: float64(sc.RouteEpoch)})
			scaleRetired.Samples = append(scaleRetired.Samples, Sample{Labels: ls, Value: float64(sc.Retired)})
		}

		slowdown := gauge("predstream_worker_slowdown", "Currently injected fault slowdown factor (1 = healthy).")
		misbehaving := gauge("predstream_worker_misbehaving", "1 while any fault is injected on the worker.")
		for _, w := range snap.Workers {
			ls := []Label{{Name: "worker", Value: w.WorkerID}, {Name: "node", Value: w.NodeID}}
			slowdown.Samples = append(slowdown.Samples, Sample{Labels: ls, Value: w.Slowdown})
			mis := 0.0
			if w.Misbehaving {
				mis = 1
			}
			misbehaving.Samples = append(misbehaving.Samples, Sample{Labels: ls, Value: mis})
		}

		nodeBusy := gauge("predstream_node_busy", "Executors currently mid-execute on the node.")
		nodeCores := gauge("predstream_node_cores", "Simulated core capacity of the node.")
		nodeExecuted := counter("predstream_node_executed_total", "Tuples executed on the node.")
		for _, n := range snap.Nodes {
			ls := []Label{{Name: "node", Value: n.NodeID}}
			nodeBusy.Samples = append(nodeBusy.Samples, Sample{Labels: ls, Value: float64(n.Busy)})
			nodeCores.Samples = append(nodeCores.Samples, Sample{Labels: ls, Value: float64(n.Cores)})
			nodeExecuted.Samples = append(nodeExecuted.Samples, Sample{Labels: ls, Value: float64(n.Executed)})
		}

		ackerInFlight := gauge("predstream_acker_in_flight", "Tracked spout roots not yet handed back to their spout, per topology.")
		for _, a := range snap.Acker {
			ackerInFlight.Samples = append(ackerInFlight.Samples, Sample{
				Labels: []Label{{Name: "topology", Value: a.Topology}},
				Value:  float64(a.InFlight),
			})
		}

		fams := []Family{
			executed, emitted, acked, failed, dropped, batches, bpWaits,
			queueLen, ringDepth, ringParks, execHist, completeHist,
			compExecuted, compEmitted, compAcked, compFailed, compDropped,
			compParallelism, compRetired, compQueueLen, compExecHist,
			scaleUps, scaleDowns, routeEpoch, scaleRetired,
			slowdown, misbehaving,
			nodeBusy, nodeCores, nodeExecuted,
			ackerInFlight,
		}
		// Trace-ring families only exist for sources that own a trace ring
		// (the local cluster); fleet snapshots assembled from shipped
		// metrics have none.
		var tr *dsps.Trace
		if ts, ok := c.(interface{ Trace() *dsps.Trace }); ok {
			tr = ts.Trace()
		}
		if tr != nil {
			fams = append(fams,
				Family{Name: "predstream_trace_spans_recorded_total", Help: "Trace spans appended to the ring since the last reset.",
					Type: TypeCounter, Samples: []Sample{{Value: float64(tr.Recorded())}}},
				Family{Name: "predstream_trace_spans_dropped_total", Help: "Trace spans overwritten by ring wraparound.",
					Type: TypeCounter, Samples: []Sample{{Value: float64(tr.Dropped())}}},
				Family{Name: "predstream_trace_buffered_spans", Help: "Trace spans currently buffered in the ring.",
					Type: TypeGauge, Samples: []Sample{{Value: float64(tr.Len())}}},
			)
		}
		return fams
	})
}

// NewControllerCollector returns a Collector exposing the predictive
// control loop's latest step: per-worker predicted/observed/basis values,
// detector verdicts, and the ratios applied to each controlled component.
func NewControllerCollector(ctrl *core.Controller) Collector {
	return CollectorFunc(func() []Family {
		last, n := ctrl.Last()
		steps := Family{Name: "predstream_controller_steps_total", Help: "Control steps executed.",
			Type: TypeCounter, Samples: []Sample{{Value: float64(n)}}}
		if n == 0 {
			return []Family{steps}
		}

		usedModel := 0.0
		if last.UsedModel {
			usedModel = 1
		}
		model := Family{Name: "predstream_controller_used_model", Help: "1 when the last step used fitted predictors (vs. reactive fallback).",
			Type: TypeGauge, Samples: []Sample{{Value: usedModel}}}

		predicted := Family{Name: "predstream_controller_predicted", Help: "Per-worker forecast of the control metric at the last step.", Type: TypeGauge}
		observed := Family{Name: "predstream_controller_observed", Help: "Per-worker last-window observation of the control metric.", Type: TypeGauge}
		basis := Family{Name: "predstream_controller_basis", Help: "Per-worker value detection and planning used at the last step.", Type: TypeGauge}
		verdict := Family{Name: "predstream_controller_misbehaving", Help: "Detector verdict per worker at the last step (1 = misbehaving).", Type: TypeGauge}
		workers := make([]string, 0, len(last.Observed))
		for id := range last.Observed {
			workers = append(workers, id)
		}
		sort.Strings(workers)
		for _, id := range workers {
			ls := []Label{{Name: "worker", Value: id}}
			predicted.Samples = append(predicted.Samples, Sample{Labels: ls, Value: last.Predicted[id]})
			observed.Samples = append(observed.Samples, Sample{Labels: ls, Value: last.Observed[id]})
			basis.Samples = append(basis.Samples, Sample{Labels: ls, Value: last.Basis[id]})
			v := 0.0
			if last.Misbehaving[id] {
				v = 1
			}
			verdict.Samples = append(verdict.Samples, Sample{Labels: ls, Value: v})
		}

		ratio := Family{Name: "predstream_controller_ratio", Help: "Split ratio applied per controlled component and task index.", Type: TypeGauge}
		components := make([]string, 0, len(last.Applied))
		for comp := range last.Applied {
			components = append(components, comp)
		}
		sort.Strings(components)
		for _, comp := range components {
			for i, r := range last.Applied[comp] {
				ratio.Samples = append(ratio.Samples, Sample{
					Labels: []Label{
						{Name: "component", Value: comp},
						{Name: "task_index", Value: strconv.Itoa(i)},
					},
					Value: r,
				})
			}
		}
		return []Family{steps, model, predicted, observed, basis, verdict, ratio}
	})
}

// NewChaosCollector returns a Collector exposing a chaos run's live
// counters (pass the same *chaos.Metrics to chaos.Options.Metrics).
func NewChaosCollector(m *chaos.Metrics) Collector {
	return CollectorFunc(func() []Family {
		c := func(name, help string, v int64) Family {
			return Family{Name: name, Help: help, Type: TypeCounter, Samples: []Sample{{Value: float64(v)}}}
		}
		return []Family{
			c("predstream_chaos_runs_total", "Chaos runs started.", m.Runs.Load()),
			c("predstream_chaos_events_fired_total", "Chaos script events applied.", m.EventsFired.Load()),
			c("predstream_chaos_events_skipped_total", "Chaos script events rejected (legitimate under churn).", m.EventsSkipped.Load()),
			c("predstream_chaos_checks_total", "Invariant sweeps executed.", m.Checks.Load()),
			{Name: "predstream_chaos_violations", Help: "Invariant violations in the current/last run.",
				Type: TypeGauge, Samples: []Sample{{Value: float64(m.Violations.Load())}}},
		}
	})
}

// NewSamplerCollector returns a Collector exposing the latest multilevel
// telemetry window per worker — the same features the DRNN consumes,
// readable by an operator.
func NewSamplerCollector(s *telemetry.Sampler) Collector {
	return CollectorFunc(func() []Family {
		execRate := Family{Name: "predstream_window_exec_rate", Help: "Tuples executed per second in the worker's last telemetry window.", Type: TypeGauge}
		avgExec := Family{Name: "predstream_window_avg_exec_ms", Help: "Mean per-tuple processing time (ms) in the last window.", Type: TypeGauge}
		avgQueue := Family{Name: "predstream_window_avg_queue_ms", Help: "Mean queueing delay (ms) in the last window.", Type: TypeGauge}
		queueLen := Family{Name: "predstream_window_queue_length", Help: "Input queue backlog at the last window end.", Type: TypeGauge}
		for _, id := range s.Workers() {
			wins := s.Series(id)
			if len(wins) == 0 {
				continue
			}
			last := wins[len(wins)-1]
			ls := []Label{{Name: "worker", Value: id}}
			execRate.Samples = append(execRate.Samples, Sample{Labels: ls, Value: last.ExecRate})
			avgExec.Samples = append(avgExec.Samples, Sample{Labels: ls, Value: last.AvgExecMs})
			avgQueue.Samples = append(avgQueue.Samples, Sample{Labels: ls, Value: last.AvgQueueMs})
			queueLen.Samples = append(queueLen.Samples, Sample{Labels: ls, Value: last.QueueLen})
		}
		return []Family{execRate, avgExec, avgQueue, queueLen}
	})
}

// NewRuntimeCollector returns a Collector exposing Go runtime health:
// goroutine count, heap in use, and completed GC cycles.
func NewRuntimeCollector() Collector {
	return CollectorFunc(func() []Family {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return []Family{
			{Name: "go_goroutines", Help: "Currently live goroutines.",
				Type: TypeGauge, Samples: []Sample{{Value: float64(runtime.NumGoroutine())}}},
			{Name: "go_memstats_heap_alloc_bytes", Help: "Heap bytes allocated and in use.",
				Type: TypeGauge, Samples: []Sample{{Value: float64(ms.HeapAlloc)}}},
			{Name: "go_memstats_total_alloc_bytes_total", Help: "Cumulative heap bytes allocated.",
				Type: TypeCounter, Samples: []Sample{{Value: float64(ms.TotalAlloc)}}},
			{Name: "go_gc_cycles_total", Help: "Completed GC cycles.",
				Type: TypeCounter, Samples: []Sample{{Value: float64(ms.NumGC)}}},
		}
	})
}
