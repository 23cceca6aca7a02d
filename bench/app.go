package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"predstream/internal/core"
	"predstream/internal/dsps"
)

// engineSpec describes one run of bench-urlcount on a local engine.
type engineSpec struct {
	seed int64
	// rate > 0 paces the spout (open loop); 0 leaves it unpaced (closed
	// loop, in-flight bounded by the engine's default MaxSpoutPending).
	rate   float64
	warm   time.Duration
	window time.Duration
	nWin   int
	// traced: odd windows record root timelines, the even ones do not (the
	// difference is the tracing overhead), and the benchmark also samples
	// the engine's public calls while it runs.
	traced bool
	// controller runs a local core.Controller on the parse edge, stepping
	// every 100 ms as deployed.
	controller bool
}

// engineOutcome is the raw material of one engine run.
type engineOutcome struct {
	spec  engineSpec
	in    *appInputs
	at    *appTopology
	trace *appTrace
	rec   *recorder // traced runs: the control steps' spans

	first, last, final *dsps.Snapshot
	measStart, measEnd time.Time
	drained            bool

	inflight    []float64
	snapshotUs  []float64
	setRatiosUs []float64
	submitMs    float64
	drainMs     float64
	shutdownMs  float64
	steps       []stepRecord
	rt          *runtimeProbe
}

func (o *engineOutcome) wall() time.Duration { return o.measEnd.Sub(o.measStart) }

// controlPeriod is how often a deployed controller steps.
const controlPeriod = 100 * time.Millisecond

// sleepUntil sleeps until t.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// runEngine builds bench-urlcount, warms it up, lets the spout measure
// nWin windows, drains and shuts down.
func runEngine(spec engineSpec) (*engineOutcome, error) {
	o := &engineOutcome{spec: spec}
	if spec.traced {
		o.trace = newAppTrace()
		o.rec = newRecorder()
		o.rec.on.Store(true)
	}
	var err error
	if o.in, err = genInputs(spec.seed, inputCycle); err != nil {
		return nil, err
	}
	sp := newGenSpout(spoutConfig{
		in: o.in, rate: spec.rate, warm: spec.warm, window: spec.window, nWin: spec.nWin,
		trace: o.trace,
	})
	t0 := time.Now()
	if o.at, err = buildTopology(sp, 0, o.trace); err != nil {
		return nil, err
	}
	// Every data-plane knob is left zero-valued: the benchmark measures
	// whatever the engine's defaults are.
	cl := dsps.NewCluster(dsps.ClusterConfig{Nodes: 2})
	shutdown := sync.OnceFunc(cl.Shutdown)
	defer shutdown()
	if err := cl.Submit(o.at.topo, dsps.SubmitConfig{Workers: 4}); err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	o.submitMs = ms(time.Since(t0))
	<-sp.opened

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var loop *controlLoop
	var loopDone chan struct{}
	if spec.controller {
		loop, err = newControlLoop(cl, o.at.dg, core.Config{Policy: core.PolicyBypass}, controlPeriod, o.rec)
		if err != nil {
			return nil, err
		}
		loopDone = make(chan struct{})
		go func() {
			defer close(loopDone)
			loop.run(ctx, 0)
		}()
	}

	o.measStart = sp.epoch.Add(spec.warm)
	o.measEnd = o.measStart.Add(time.Duration(spec.nWin) * spec.window)
	sleepUntil(o.measStart)
	o.first = cl.Snapshot()
	o.rt = startRuntimeProbe()
	if spec.traced {
		o.sampleWhileMeasuring(cl, loop == nil)
	}
	sleepUntil(o.measEnd)
	o.last = cl.Snapshot()
	o.rt.stop()

	cl.PauseSpouts()
	t0 = time.Now()
	o.drained = cl.Drain(15 * time.Second)
	o.drainMs = ms(time.Since(t0))
	o.final = cl.Snapshot()
	cancel()
	if loop != nil {
		<-loopDone
		o.steps = loop.snapshotSteps()
	}
	t0 = time.Now()
	shutdown()
	o.shutdownMs = ms(time.Since(t0))
	return o, nil
}

// sampleWhileMeasuring calls the engine's public observation and actuation
// functions under load, timing each, until the measured interval ends.
// setRatios is false when a controller owns the parse edge.
func (o *engineOutcome) sampleWhileMeasuring(cl *dsps.Cluster, setRatios bool) {
	uniform := make([]float64, parseTasks)
	for i := range uniform {
		uniform[i] = 1.0 / parseTasks
	}
	for n := 0; time.Until(o.measEnd) > 150*time.Millisecond; n++ {
		time.Sleep(100 * time.Millisecond)
		o.inflight = append(o.inflight, float64(cl.InFlight()))
		if n%5 != 0 {
			continue
		}
		t0 := time.Now()
		cl.Snapshot()
		o.snapshotUs = append(o.snapshotUs, us(time.Since(t0)))
		if setRatios {
			t0 = time.Now()
			err := o.at.dg.SetRatios(uniform) // uniform is what the grouping starts with
			d := time.Since(t0)
			if err == nil {
				o.setRatiosUs = append(o.setRatiosUs, us(d))
			}
		}
	}
}

// spoutTotals reads the spout component's counters from a snapshot.
func spoutTotals(s *dsps.Snapshot) (emitted, acked, failed int64) {
	for _, c := range s.Components {
		if c.IsSpout {
			emitted += c.Emitted
			acked += c.Acked
			failed += c.Failed
		}
	}
	return
}

// component finds one component's aggregate in a snapshot.
func component(s *dsps.Snapshot, name string) dsps.ComponentStats {
	for _, c := range s.Components {
		if c.Component == name {
			return c
		}
	}
	return dsps.ComponentStats{}
}

// checkEngine runs the correctness checks every engine run must pass.
func (o *engineOutcome) checkEngine(res *result, label string) {
	checkEngine(res, label, o.in, o.at, o.final, o.drained)
}

// checkEngine checks one drained engine from outside: conservation at the
// spout, no failed roots, and the count bolts' per-host totals against the
// reference the generator computed. final is a snapshot taken after the
// drain; call it once the topology has shut down.
func checkEngine(res *result, label string, in *appInputs, at *appTopology, final *dsps.Snapshot, drained bool) {
	sp := at.spout
	emitted, acked, failed := spoutTotals(final)
	res.checkf(label+"drained", drained, "Drain returned %v", drained)
	res.checkf(label+"conservation", emitted == acked+failed && emitted == sp.emitted && acked == sp.acked,
		"engine emitted %d acked %d failed %d; spout emitted %d acked %d failed %d", emitted, acked, failed, sp.emitted, sp.acked, sp.failed)
	res.checkf(label+"no_failed_roots", failed == 0 && sp.failed == 0, "failed %d", failed)
	want := in.reference(sp.emitted)
	got := at.hostTotals()
	bad := 0
	for h, w := range want {
		if got[h] != w {
			bad++
		}
	}
	for h := range got {
		if _, ok := want[h]; !ok {
			bad++
		}
	}
	res.checkf(label+"host_totals", bad == 0, "%d of %d hosts differ from the reference over %d roots", bad, len(want), sp.emitted)
	res.Attempted += sp.emitted
	res.Failed += sp.failed
}

// windowSeries pulls per-window numbers out of the spout: acked roots per
// second and the latency samples. which selects the windows (nil = all).
func (o *engineOutcome) windowSeries(which func(w winStats) bool) (rate []float64, lat [][]float64) {
	for _, w := range o.at.spout.wins {
		if which != nil && !which(w) {
			continue
		}
		rate = append(rate, float64(w.acked)/o.spec.window.Seconds())
		lat = append(lat, w.latMs)
	}
	return rate, lat
}

// perWindow reads one quantile off every window.
func perWindow(windows [][]float64, q float64) []float64 {
	out := make([]float64, 0, len(windows))
	for _, w := range windows {
		if len(w) > 0 {
			out = append(out, quantile(w, q))
		}
	}
	return out
}

// reportEndToEnd files ops_per_s and the latency metrics from every window.
func (o *engineOutcome) reportEndToEnd(res *result) {
	rate, lat := o.windowSeries(nil)
	res.notef("windows: roots/s %.0f; p50 ms %.3g; p90 ms %.3g", rate, perWindow(lat, 0.5), perWindow(lat, 0.9))
	res.setMedian(mOps, rate)
	res.setLatency(lat, lat)
}

// reportDspsLayer files the dsps.* metrics that come from snapshot deltas
// between first and last over wall, plus requested vs observed split.
func reportDspsLayer(res *result, first, last *dsps.Snapshot, wall time.Duration, requested []float64) {
	for _, name := range []string{"parse", "count"} {
		a, b := component(first, name), component(last, name)
		if b.Parallelism == 0 || wall <= 0 {
			continue
		}
		res.set("dsps."+name+".busy_share", float64(b.ExecLatency-a.ExecLatency)/(float64(wall)*float64(b.Parallelism)))
		if n := b.Executed - a.Executed; n > 0 {
			res.set("dsps."+name+".queue_wait_us", us(b.QueueLatency-a.QueueLatency)/float64(n))
		}
	}
	var emitted, batches, waits int64
	for _, name := range []string{"urls", "parse"} {
		a, b := component(first, name), component(last, name)
		emitted += b.Emitted - a.Emitted
		batches += b.Batches - a.Batches
		waits += b.BackpressureWaits - a.BackpressureWaits
	}
	if batches > 0 {
		res.set("dsps.batch.avg_tuples", float64(emitted)/float64(batches))
		res.set("dsps.backpressure.wait_share", float64(waits)/float64(batches))
	}
	// Split error: each parse task's share of the tuples executed in the
	// interval against the ratio asked of the dynamic grouping.
	before := map[int]int64{}
	for _, t := range first.Tasks {
		if t.Component == "parse" {
			before[t.TaskIndex] = t.Executed
		}
	}
	delta := make([]float64, parseTasks)
	total := 0.0
	for _, t := range last.Tasks {
		if t.Component == "parse" && t.TaskIndex < parseTasks {
			delta[t.TaskIndex] = float64(t.Executed - before[t.TaskIndex])
			total += delta[t.TaskIndex]
		}
	}
	if total > 0 {
		worst := 0.0
		for i, d := range delta {
			want := 1.0 / parseTasks
			if len(requested) == parseTasks {
				want = requested[i]
			}
			worst = math.Max(worst, math.Abs(d/total-want))
		}
		res.set("dsps.split_error_max", worst)
	}
}

// meanRatios averages the ratio vectors the steps in [from, to) applied;
// nil when there were none.
func meanRatios(steps []stepRecord, from, to time.Time) []float64 {
	sum := make([]float64, parseTasks)
	n := 0
	for _, s := range steps {
		if s.start.Before(from) || !s.start.Before(to) || len(s.applied) != parseTasks {
			continue
		}
		for i, r := range s.applied {
			sum[i] += r
		}
		n++
	}
	if n == 0 {
		return nil
	}
	for i := range sum {
		sum[i] /= float64(n)
	}
	return sum
}

// reportTracedLayers files everything a traced engine run adds: snapshot
// deltas, call costs, span-derived hand-off times, generator lag, runtime
// counters and the tracing overhead on the given headline.
func (o *engineOutcome) reportTracedLayers(res *result, headlineHigher bool) []span {
	requested := o.at.dg.Ratios()
	if o.spec.controller {
		requested = meanRatios(o.steps, o.measStart, o.measEnd)
	}
	reportDspsLayer(res, o.first, o.last, o.wall(), requested)
	if len(o.inflight) > 0 {
		res.set("dsps.acker.inflight_avg", meanOf(o.inflight), o.inflight...)
	}
	if len(o.snapshotUs) > 0 {
		res.setMedian("dsps.snapshot_us", o.snapshotUs)
	}
	if len(o.setRatiosUs) > 0 {
		res.setMedian("dsps.set_ratios_us", o.setRatiosUs)
	}
	res.set("dsps.submit_ms", o.submitMs)
	res.set("dsps.drain_ms", o.drainMs)
	res.set("dsps.shutdown_ms", o.shutdownMs)

	var lag []float64
	for _, w := range o.at.spout.wins {
		lag = append(lag, w.lagUs...)
	}
	if len(lag) > 0 {
		res.setTail("gen.lag_p99_us", lag, 0.99)
	}

	spans, h1, h2, h3 := o.rootSpans()
	// The control steps' spans, moved onto the spout's clock.
	shift := int64(o.rec.epoch.Sub(o.at.spout.epoch))
	for _, s := range o.rec.all() {
		s.Start, s.End = s.Start+shift, s.End+shift
		spans = append(spans, s)
	}
	if len(h1) > 0 {
		res.setMedian("dsps.handoff.spout_parse_us", h1)
		res.setMedian("dsps.handoff.parse_count_us", h2)
		res.setMedian("dsps.acker.complete_us", h3)
	}

	emitted, _, _ := spoutTotals(o.last)
	emitted0, _, _ := spoutTotals(o.first)
	o.rt.report(res, emitted-emitted0)

	// Tracing overhead: the headline over the traced (odd) windows against
	// the untraced (even) ones of this same run.
	headline := func(traced bool) float64 {
		rate, lat := o.windowSeries(func(w winStats) bool { return w.traced == traced })
		if headlineHigher {
			return median(rate)
		}
		return median(perWindow(lat, 0.5))
	}
	res.set("trace.overhead_pct", overheadPct(headline(false), headline(true), headlineHigher))
	return spans
}

// maxTraceRoots caps how many traced roots are written to a trace file.
const maxTraceRoots = 4000

// rootSpans turns the traced roots into spans and returns the three
// hand-off series in microseconds. A root's children tile it exactly:
// generator lag, spout->parse, parse, parse->count, count, count->ack.
func (o *engineOutcome) rootSpans() (spans []span, spoutParse, parseCount, complete []float64) {
	if o.trace == nil {
		return
	}
	roots := 0
	for i := range o.trace.slots {
		sl := &o.trace.slots[i]
		if !sl.traced || !sl.acked || !sl.parseSeen || !sl.countSeen {
			continue
		}
		spoutParse = append(spoutParse, float64(sl.parseStart-sl.emit)/1e3)
		parseCount = append(parseCount, float64(sl.countStart-sl.parseEnd)/1e3)
		complete = append(complete, float64(sl.ack-sl.countEnd)/1e3)
		if roots++; roots > maxTraceRoots {
			continue
		}
		id := uint64(i) * traceEvery
		add := func(name, parent string, a, b int64) {
			spans = append(spans, span{Name: name, ID: id, Parent: parent, Start: a, End: b})
		}
		add("root", "", sl.due, sl.ack)
		add("gen.lag", "root", sl.due, sl.emit)
		add("dsps.handoff.spout_parse", "root", sl.emit, sl.parseStart)
		add("parse.execute", "root", sl.parseStart, sl.parseEnd)
		add("dsps.handoff.parse_count", "root", sl.parseEnd, sl.countStart)
		add("count.execute", "root", sl.countStart, sl.countEnd)
		add("dsps.acker.complete", "root", sl.countEnd, sl.ack)
	}
	return
}

// engine windows: how the measured time is divided.
const (
	saturateWindows = 5
	pacedWindows    = 6
	engineWarm      = 2 * time.Second
	pacedRate       = 50_000
	// tracedMainShare of a traced run's time goes to the workload proper;
	// the rest pays for the extra diagnostic runs.
	tracedMainShare = 0.6
)

// runAppSaturate is the closed-loop engine workload.
func runAppSaturate(rc runConfig) (*result, []span, error) {
	res := newResult(rc)
	share := 1.0
	if rc.traced {
		share = tracedMainShare
	}
	o, err := runEngine(engineSpec{
		seed: rc.seed, warm: rc.warm(engineWarm), window: rc.dur(share / saturateWindows), nWin: saturateWindows,
		traced: rc.traced,
	})
	if err != nil {
		return nil, nil, err
	}
	o.checkEngine(res, "")
	rc.setupDone(res, o.measStart)
	o.reportEndToEnd(res)
	if !rc.traced {
		return res, nil, nil
	}
	spans := o.reportTracedLayers(res, true)

	// Single-threaded baseline: the same job at GOMAXPROCS=1.
	prev := runtime.GOMAXPROCS(1)
	p1, err := runEngine(engineSpec{
		seed: rc.seed, warm: rc.warm(time.Second), window: rc.dur((1 - tracedMainShare) / 2), nWin: 2,
	})
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return nil, nil, err
	}
	p1.checkEngine(res, "p1_")
	rate, _ := p1.windowSeries(nil)
	res.setMedian("dsps.tuples_per_s_p1", rate)
	return res, spans, nil
}

// runAppPaced is the open-loop engine workload at the pinned rate.
func runAppPaced(rc runConfig) (*result, []span, error) {
	res := newResult(rc)
	share := 1.0
	if rc.traced {
		share = tracedMainShare
	}
	o, err := runEngine(engineSpec{
		seed: rc.seed, rate: pacedRate, warm: rc.warm(engineWarm), window: rc.dur(share / pacedWindows), nWin: pacedWindows,
		traced: rc.traced, controller: true,
	})
	if err != nil {
		return nil, nil, err
	}
	o.checkEngine(res, "")
	stepErrs := 0
	for _, s := range o.steps {
		if s.err != nil {
			stepErrs++
		}
	}
	res.checkf("control_steps", stepErrs == 0 && len(o.steps) > 0, "%d steps, %d errors", len(o.steps), stepErrs)
	rc.setupDone(res, o.measStart)
	o.reportEndToEnd(res)
	if !rc.traced {
		return res, nil, nil
	}
	spans := o.reportTracedLayers(res, false)
	reportSteps(res, o.steps, o.measStart, o.measEnd, "snapshot", "detect", "actuate")

	// Diagnostics, too noisy to gate: the same topology at higher rates.
	best := 0.0
	for _, rate := range []float64{pacedRate, 200_000, 400_000} {
		var p50, p99 float64
		backlogGrew := false
		if rate == pacedRate {
			p50, p99 = res.value(mP50), res.value(mP99)
		} else {
			d, err := runEngine(engineSpec{
				seed: rc.seed, rate: rate, warm: rc.warm(time.Second), window: rc.dur((1 - tracedMainShare) / 4), nWin: 2,
			})
			if err != nil {
				return nil, nil, err
			}
			d.checkEngine(res, fmt.Sprintf("r%dk_", int(rate/1000)))
			_, lat := d.windowSeries(nil)
			p50s, p99s := perWindow(lat, 0.5), perWindow(lat, 0.99)
			p50, p99 = median(p50s), median(p99s)
			// A backlog that grows shows as the second window's median
			// latency well above the first's.
			if len(p50s) == 2 && p50s[1] > 2*p50s[0] && p50s[1] > 5 {
				backlogGrew = true
			}
			if rate == 200_000 {
				res.set("dsps.paced200k.p50_ms", p50, p50s...)
				res.set("dsps.paced200k.p99_ms", p99, p99s...)
			}
		}
		if p99 <= 10 && !backlogGrew {
			best = rate
		}
	}
	res.set("dsps.max_rate_within_10ms", best)
	return res, spans, nil
}
