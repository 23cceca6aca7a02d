package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"predstream/internal/cluster"
	"predstream/internal/core"
	"predstream/internal/drnn"
	"predstream/internal/dsps"
	"predstream/internal/obs"
	"predstream/internal/telemetry"
	"predstream/internal/timeseries"
)

// fleet_fault: the paper's scenario on the real wire. An in-process
// coordinator and two in-process workers talk over loopback TCP; each
// worker hosts bench-urlcount with a 5 ms parse stage at 250 roots/s; one
// DRNN-backed controller per worker steers it through RemoteEngine and
// RemoteGrouping; a slowdown is injected on one parse worker of w0 five
// times.

const (
	fleetRate      = 250 // roots/s per worker engine
	fleetParseCost = 5 * time.Millisecond
	fleetCycles    = 5
	fleetWarmSteps = 40
	// fleetMinSteps: FitPredictors wants the controller's default
	// MinHistory of 30 windows, and the first step only sets the baseline.
	fleetMinSteps = 31
	// minCycleLen leaves the controller time to bypass (2-3 steps) and,
	// after the clear, to re-admit (2-3 steps), however short the run.
	minCycleLen     = 15 * controlPeriod
	fleetProbeRatio = 0.02
	fleetSlowdown   = 8
	// injectAfter is the fixed phase of a fault: this long after a step of
	// w0's controller returns. Unaligned, time-to-bypass spreads over a whole
	// period. The next step then has nine tenths of a period of evidence: the
	// victim's first slowed tuple (8 x 6 ms, after up to 16 ms of waiting
	// for it) is done well before, and the bypass lands at that step every
	// time. Half a period put that tuple's completion right at the step, and
	// the bypass took one step or two from cycle to cycle.
	injectAfter = controlPeriod / 10
	// lateAfterMs: an ack this long after its due time (10x the healthy
	// service time) counts the system as not yet recovered.
	lateAfterMs = 50.0
	// readmitAbove: the victim's ratio must exceed this between cycles.
	readmitAbove = 0.2
)

// fleetWorker is one worker process's worth of state, hosted in-process.
type fleetWorker struct {
	name   string
	in     *appInputs
	at     *appTopology
	eng    *dsps.Cluster
	cancel context.CancelFunc
	done   chan error
}

// fleet is the coordinator, its two workers and their controllers.
type fleet struct {
	coord   *cluster.Coordinator
	workers []*fleetWorker
	loops   []*controlLoop
	joinMs  float64
	closed  bool
}

// close tears the fleet down: workers leave cleanly, engines stop, the
// coordinator closes. It returns each engine's Shutdown time; a second
// call does nothing.
func (f *fleet) close() (shutdownMs []float64) {
	if f.closed {
		return nil
	}
	f.closed = true
	for _, w := range f.workers {
		if w.cancel != nil {
			w.cancel()
			<-w.done
		}
	}
	for _, w := range f.workers {
		if w.eng != nil {
			t0 := time.Now()
			w.eng.Shutdown()
			shutdownMs = append(shutdownMs, ms(time.Since(t0)))
		}
	}
	if f.coord != nil {
		_ = f.coord.Close() // listener teardown: nothing to do about an error here
	}
	return shutdownMs
}

// buildFleet starts a coordinator and two workers, waits for both to join
// and builds one controller per worker over the wire (decorated when rec
// is set).
func buildFleet(inputs []*appInputs, window time.Duration, rec *recorder, submitMs *[]float64) (*fleet, error) {
	coord, err := cluster.NewCoordinator("127.0.0.1:0", cluster.CoordinatorConfig{})
	if err != nil {
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	f := &fleet{coord: coord}
	ok := false
	defer func() {
		if !ok {
			f.close()
		}
	}()
	joinStart := time.Now()
	for i, in := range inputs {
		name := fmt.Sprintf("w%d", i)
		sp := newGenSpout(spoutConfig{
			in: in, rate: fleetRate, window: window, nWin: 1, armLater: true, keepDue: true,
		})
		at, err := buildTopology(sp, fleetParseCost, nil)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		// The E6/E7/predworker sizing; data-plane knobs stay zero-valued.
		eng := dsps.NewCluster(dsps.ClusterConfig{
			Nodes: 2, QueueSize: 64, MaxSpoutPending: 256, AckTimeout: 10 * time.Second,
		})
		if err := eng.Submit(at.topo, dsps.SubmitConfig{Workers: 4}); err != nil {
			return nil, fmt.Errorf("submit %s: %w", name, err)
		}
		*submitMs = append(*submitMs, ms(time.Since(t0)))
		fw := &fleetWorker{name: name, in: in, at: at, eng: eng}
		f.workers = append(f.workers, fw)
		w, err := cluster.NewWorker(cluster.WorkerConfig{
			Name: name, Coordinator: coord.Addr().String(), Engine: eng, Topology: topoName,
			Groupings: map[string]*dsps.DynamicGrouping{"parse": at.dg}, Spouts: at.topo.Spouts(),
		})
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithCancel(context.Background())
		fw.cancel, fw.done = cancel, make(chan error, 1)
		go func() { fw.done <- w.Run(ctx) }()
	}
	if err := coord.WaitForWorkers(len(inputs), 10*time.Second); err != nil {
		return nil, fmt.Errorf("join: %w", err)
	}
	f.joinMs = ms(time.Since(joinStart))
	for _, fw := range f.workers {
		eng, err := coord.Engine(fw.name)
		if err != nil {
			return nil, err
		}
		loop, err := newControlLoop(eng, coord.Grouping(fw.name, "parse"), core.Config{
			Policy: core.PolicyBypass, ProbeRatio: fleetProbeRatio,
			NewPredictor: func() timeseries.Predictor { return drnn.New(drnn.Config{Epochs: 20}) },
		}, controlPeriod, rec)
		if err != nil {
			return nil, err
		}
		f.loops = append(f.loops, loop)
	}
	ok = true
	return f, nil
}

// faultCycle is one inject/clear cycle as it happened.
type faultCycle struct {
	start, injectAt, clearAt, end time.Time
	traced                        bool
}

// victimOf picks the parse task to slow down: the first one not hosted on
// the spout's worker. It returns the simulated worker's id and the task's
// index in the ratio vector.
func victimOf(s *dsps.Snapshot) (worker string, taskIdx int, err error) {
	spoutWorker := ""
	for _, t := range s.Tasks {
		if t.IsSpout {
			spoutWorker = t.WorkerID
		}
	}
	tasks := s.ComponentTasks("parse")
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].TaskIndex < tasks[j].TaskIndex })
	for _, t := range tasks {
		if t.WorkerID != spoutWorker {
			return t.WorkerID, t.TaskIndex, nil
		}
	}
	return "", 0, errors.New("no parse task off the spout's worker")
}

// waitSteps blocks until every loop has recorded at least n steps.
func waitSteps(loops []*controlLoop, n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		done := true
		for _, l := range loops {
			if l.count() < n {
				done = false
			}
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("controllers did not reach %d steps in %v", n, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// scraper renders /metrics once per second, as a deployed fleet would be
// scraped, and times each rendering.
type scraper struct {
	reg *obs.Registry

	// Written by run; read once run has returned.
	us       []float64
	bytes    int
	families int
	err      error
}

func (s *scraper) run(ctx context.Context) {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	var buf bytes.Buffer
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			buf.Reset()
			t0 := time.Now()
			err := s.reg.WritePrometheus(&buf)
			s.us = append(s.us, us(time.Since(t0)))
			s.bytes = buf.Len()
			s.families = bytes.Count(buf.Bytes(), []byte("# TYPE "))
			if err != nil {
				s.err = err
			}
		}
	}
}

// fleetRun is one run of fleet_fault as it unfolds.
type fleetRun struct {
	rc  runConfig
	res *result
	rec *recorder

	nCycles            int
	cycleLen, faultLen time.Duration

	fl        *fleet
	submitMs  []float64
	fitMs     float64
	victim    string // simulated worker of w0 that is slowed down
	victimIdx int    // its parse task's index in the ratio vector

	measStart, measEnd time.Time
	cycles             []faultCycle
	first, last        *dsps.Snapshot // the bystander w1, at both ends
	rt                 *runtimeProbe
	rpcErrs            int
	snapshotUs         []float64
	scrape             *scraper
	drainMs            []float64
	shutdownMs         []float64
}

// runFleetFault is the control-plane workload.
func runFleetFault(rc runConfig) (*result, []span, error) {
	r := &fleetRun{rc: rc, res: newResult(rc), rec: newRecorder()}
	// A run too short for five cycles of the least length (the self-tests'
	// smoke run) makes fewer.
	r.nCycles = min(fleetCycles, max(1, int(rc.dur(1)/minCycleLen)))
	r.cycleLen = max(rc.dur(1/float64(r.nCycles)), minCycleLen)
	r.faultLen = r.cycleLen * 2 / 3

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var loops sync.WaitGroup
	defer func() {
		cancel()
		loops.Wait()
		if r.fl != nil {
			r.fl.close()
		}
	}()
	if err := r.setUp(ctx, &loops); err != nil {
		return nil, nil, err
	}
	r.measure(ctx)
	// Call costs of the layers this workload exercises, taken while the
	// fleet is still up and loaded.
	if rc.traced {
		reportFleetCalls(r.res, r.fl, &r.rpcErrs)
	}
	cancel()
	loops.Wait()
	r.checkAndClose()
	r.report()
	if !rc.traced {
		return r.res, nil, nil
	}
	return r.res, r.rec.all(), nil
}

// setUp builds the fleet, lets the controllers collect the history a fit
// needs, and fits their predictors. The control loops it starts run until
// ctx is cancelled.
func (r *fleetRun) setUp(ctx context.Context, loops *sync.WaitGroup) error {
	inputs := make([]*appInputs, 2)
	for i := range inputs {
		in, err := genInputs(r.rc.seed+int64(i), inputCycle)
		if err != nil {
			return err
		}
		inputs[i] = in
	}
	stepRec := r.rec // the controllers are decorated on a traced run only
	if !r.rc.traced {
		stepRec = nil
	}
	// The measured interval is one spout window; the slack covers the
	// phase alignment of each cycle.
	var err error
	r.fl, err = buildFleet(inputs, time.Duration(r.nCycles)*r.cycleLen+2*time.Second, stepRec, &r.submitMs)
	if err != nil {
		return err
	}
	for i, l := range r.fl.loops {
		loops.Add(1)
		go func(i int, l *controlLoop) {
			defer loops.Done()
			l.run(ctx, uint64(i+1)*1_000_000)
		}(i, l)
	}
	warmSteps := max(fleetMinSteps, int(r.rc.warm(fleetWarmSteps*controlPeriod)/controlPeriod))
	if err := waitSteps(r.fl.loops, warmSteps, 30*time.Second); err != nil {
		return err
	}

	// Fit: both controllers at once, one goroutine each.
	t0 := time.Now()
	errs := make([]error, len(r.fl.loops))
	var wg sync.WaitGroup
	for i, l := range r.fl.loops {
		wg.Add(1)
		go func(i int, l *controlLoop) {
			defer wg.Done()
			errs[i] = l.ctrl.FitPredictors()
		}(i, l)
	}
	wg.Wait()
	r.fitMs = ms(time.Since(t0))
	if err := errors.Join(errs...); err != nil {
		return err
	}
	// A few steps to get past the window that spans the fit.
	time.Sleep(5 * controlPeriod)

	r.victim, r.victimIdx, err = victimOf(r.fl.workers[0].eng.Snapshot())
	return err
}

// measure runs the fault cycles while /metrics is scraped once a second.
func (r *fleetRun) measure(ctx context.Context) {
	w0, w1 := r.fl.workers[0], r.fl.workers[1]
	loop0 := r.fl.loops[0]
	remote0, err := r.fl.coord.Engine(w0.name)
	if err != nil {
		r.rpcErrs++
		return
	}
	reg := obs.NewRegistry()
	reg.Register(obs.NewClusterCollector(r.fl.coord))
	r.scrape = &scraper{reg: reg}
	scrapeCtx, stopScrape := context.WithCancel(ctx)
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		r.scrape.run(scrapeCtx)
	}()

	r.measStart = time.Now().Add(20 * time.Millisecond)
	for _, w := range r.fl.workers {
		w.at.spout.arm(r.measStart)
	}
	sleepUntil(r.measStart)
	r.rc.setupDone(r.res, r.measStart)
	r.first = w1.eng.Snapshot()
	r.rt = startRuntimeProbe()
	for k := 0; k < r.nCycles; k++ {
		c := faultCycle{start: r.measStart.Add(time.Duration(k) * r.cycleLen), traced: r.rc.traced && k%2 == 0}
		c.end = c.start.Add(r.cycleLen)
		sleepUntil(c.start)
		r.rec.on.Store(c.traced)
		for seen := loop0.count(); loop0.count() == seen; {
			time.Sleep(time.Millisecond)
		}
		last, _ := loop0.lastStep()
		sleepUntil(last.end.Add(injectAfter))
		if err := remote0.InjectFault(r.victim, dsps.Fault{Slowdown: fleetSlowdown}); err != nil {
			r.rpcErrs++
		}
		c.injectAt = time.Now()
		if r.rc.traced {
			t0 := time.Now()
			w1.eng.Snapshot()
			r.snapshotUs = append(r.snapshotUs, us(time.Since(t0)))
		}
		sleepUntil(c.injectAt.Add(r.faultLen))
		if err := remote0.ClearFault(r.victim); err != nil {
			r.rpcErrs++
		}
		c.clearAt = time.Now()
		if c.end.Before(c.clearAt.Add(r.cycleLen / 6)) {
			c.end = c.clearAt.Add(r.cycleLen / 6)
		}
		sleepUntil(c.end)
		r.cycles = append(r.cycles, c)
	}
	r.rec.on.Store(false)
	r.measEnd = time.Now()
	r.last = w1.eng.Snapshot()
	r.rt.stop()
	stopScrape()
	<-scrapeDone
}

// checkAndClose runs the correctness checks that need the fleet — the
// invariants inside each worker, then conservation and the per-host totals
// from outside — and tears it down.
func (r *fleetRun) checkAndClose() {
	res, fl := r.res, r.fl
	for _, w := range fl.workers {
		t0 := time.Now()
		drained, violations, err := fl.coord.CheckInvariants(w.name, 15*time.Second, false)
		r.drainMs = append(r.drainMs, ms(time.Since(t0)))
		res.checkf(w.name+"_invariants", err == nil && drained && len(violations) == 0, "drained %v, violations %v, err %v", drained, violations, err)
	}
	finals := make([]*dsps.Snapshot, len(fl.workers))
	for i, w := range fl.workers {
		finals[i] = w.eng.Snapshot()
	}
	r.shutdownMs = fl.close()
	stats := fl.coord.Stats()
	res.checkf("membership", stats.Joins == stats.Leaves+stats.Live && stats.Joins == len(fl.workers) && stats.Rejects == 0,
		"joins %d leaves %d live %d rejects %d", stats.Joins, stats.Leaves, stats.Live, stats.Rejects)
	for i, w := range fl.workers {
		checkEngine(res, w.name+"_", w.in, w.at, finals[i], true)
	}
}

// report turns the spouts' samples and the controllers' step records into
// metrics and the checks on the controller's behaviour.
func (r *fleetRun) report() {
	res, fl := r.res, r.fl
	measStart, measEnd, cycles := r.measStart, r.measEnd, r.cycles
	s0 := fl.workers[0].at.spout
	win0 := s0.wins[0]
	epochNs := func(t time.Time) int64 { return int64(t.Sub(s0.epoch)) }
	// The spouts' window is longer than the cycles ran; only what fell
	// inside the cycles counts. Latency samples are sorted per cycle.
	endNs := epochNs(measEnd)
	inRun := 0
	perCycle := make([][]float64, len(cycles))
	var latTraced, latUntraced []float64
	for i, d := range win0.dueNs {
		if d >= endNs {
			continue
		}
		inRun++
		for k, c := range cycles {
			if d >= epochNs(c.start) && d < epochNs(c.end) {
				perCycle[k] = append(perCycle[k], win0.latMs[i])
				if c.traced {
					latTraced = append(latTraced, win0.latMs[i])
				} else {
					latUntraced = append(latUntraced, win0.latMs[i])
				}
				break
			}
		}
	}
	ackedInRun := 0
	for _, w := range fl.workers {
		sp := w.at.spout
		e := int64(measEnd.Sub(sp.epoch))
		for i, d := range sp.wins[0].dueNs {
			if d+int64(sp.wins[0].latMs[i]*1e6) < e {
				ackedInRun++
			}
		}
	}
	res.set(mOps, float64(ackedInRun)/measEnd.Sub(measStart).Seconds())

	steps0 := fl.loops[0].snapshotSteps()
	inFault := make([][]float64, len(cycles))
	var toBypass, toRecover, stepsToBypass []float64
	bypassedAll, readmittedAll := true, true
	for k, c := range cycles {
		a, b := epochNs(c.injectAt), epochNs(c.clearAt)
		lastLate := int64(0)
		next := endNs
		if k+1 < len(cycles) {
			next = epochNs(cycles[k+1].injectAt)
		}
		for i, d := range win0.dueNs {
			if d >= a && d < b {
				inFault[k] = append(inFault[k], win0.latMs[i])
			}
			ack := d + int64(win0.latMs[i]*1e6)
			if win0.latMs[i] > lateAfterMs && ack >= a && ack < next && ack > lastLate {
				lastLate = ack
			}
		}
		if lastLate > 0 {
			toRecover = append(toRecover, float64(lastLate-a)/1e6)
		}
		// Reaction: the first step begun after the injection whose applied
		// ratio for the victim is down to the probe share.
		bypassed, readmitted := false, false
		n := 0
		for _, s := range steps0 {
			if !s.start.After(c.injectAt) || len(s.applied) <= r.victimIdx {
				continue
			}
			if !bypassed && s.start.Before(c.clearAt) {
				n++
				if s.applied[r.victimIdx] <= fleetProbeRatio+1e-9 {
					bypassed = true
					toBypass = append(toBypass, ms(s.end.Sub(c.injectAt)))
					stepsToBypass = append(stepsToBypass, float64(n))
				}
			}
			if s.start.After(c.clearAt) && epochNs(s.start) < next && s.applied[r.victimIdx] > readmitAbove {
				readmitted = true
			}
		}
		bypassedAll = bypassedAll && bypassed
		readmittedAll = readmittedAll && readmitted
	}
	// Typical latency over every root of w0, cycle by cycle; the tail over
	// the roots due while the fault is on (one fault window has too few
	// roots for a p99, so that one is read off the windows pooled).
	res.setLatency(perCycle, inFault)
	res.checkf("victim_bypassed_every_cycle", bypassedAll, "victim %s (parse task %d): bypassed in %d of %d fault windows", r.victim, r.victimIdx, len(toBypass), len(cycles))
	res.checkf("victim_readmitted_every_cycle", readmittedAll, "ratio back above %.1f after every clear: %v", readmitAbove, readmittedAll)
	modelSteps, allSteps, stepErrs := 0, 0, 0
	for _, l := range fl.loops {
		for _, s := range l.snapshotSteps() {
			if s.start.Before(measStart) || !s.start.Before(measEnd) {
				continue
			}
			allSteps++
			if s.usedModel {
				modelSteps++
			}
			if s.err != nil {
				stepErrs++
			}
		}
	}
	rpcErrs := r.rpcErrs + stepErrs
	res.checkf("model_in_the_loop", allSteps > 0 && modelSteps == allSteps, "%d of %d measured steps used the fitted model", modelSteps, allSteps)
	res.checkf("no_rpc_errors", rpcErrs == 0, "%d RPC errors", rpcErrs)
	sc := r.scrape
	res.checkf("scrape", sc.err == nil && len(sc.us) > 0 && sc.bytes > 0, "%d scrapes, %d bytes, err %v", len(sc.us), sc.bytes, sc.err)
	res.Attempted += int64(allSteps)
	res.Failed += int64(rpcErrs)
	// The issue's headline metrics of this workload, taken on every run.
	res.setMedian("core.time_to_bypass_ms", toBypass)
	res.setMedian("core.time_to_recover_ms", toRecover)
	res.setMedian("core.steps_to_bypass", stepsToBypass)
	if !r.rc.traced {
		return
	}

	// Per-layer metrics.
	res.set("core.fit_ms", r.fitMs)
	res.set("cluster.join_ms", fl.joinMs)
	reportSteps(res, steps0, measStart, measEnd, "snapshot", "predict", "detect", "actuate")
	var rpcSnap, rpcSet []float64
	for _, s := range steps0 {
		if s.start.Before(measStart) || !s.start.Before(measEnd) {
			continue
		}
		rpcSnap = append(rpcSnap, s.childUs("snapshot"))
		rpcSet = append(rpcSet, s.childUs("actuate"))
	}
	res.setMedian("cluster.rpc.snapshot_us_p50", rpcSnap)
	res.setTail("cluster.rpc.snapshot_us_p99", rpcSnap, 0.99)
	res.setMedian("cluster.rpc.set_ratios_us_p50", rpcSet)
	res.set("cluster.rpc.errors", float64(rpcErrs))
	res.setMedian("obs.scrape_us_p50", sc.us)
	res.set("obs.scrape_bytes", float64(sc.bytes))
	res.set("obs.scrape_families", float64(sc.families))

	// dsps on the bystander w1: the data plane idles in time.Sleep here.
	reportDspsLayer(res, r.first, r.last, measEnd.Sub(measStart), meanRatios(fl.loops[1].snapshotSteps(), measStart, measEnd))
	res.setMedian("dsps.snapshot_us", r.snapshotUs)
	res.setMedian("dsps.submit_ms", r.submitMs)
	res.setMedian("dsps.drain_ms", r.drainMs)
	res.setMedian("dsps.shutdown_ms", r.shutdownMs)
	var lag []float64
	for _, w := range fl.workers {
		lag = append(lag, w.at.spout.wins[0].lagUs...)
	}
	res.setTail("gen.lag_p99_us", lag, 0.99)
	res.set("dsps.acker.inflight_avg", float64(r.first.Acker[0].InFlight+r.last.Acker[0].InFlight)/2)
	r.rt.report(res, int64(2*inRun))
	res.set("trace.overhead_pct", overheadPct(median(latUntraced), median(latTraced), false))
}

// reportFleetCalls times the public functions of cluster and telemetry one
// by one against the live fleet.
func reportFleetCalls(res *result, fl *fleet, rpcErrs *int) {
	w0 := fl.workers[0]
	var pings []float64
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if err := fl.coord.Ping(w0.name); err != nil {
			*rpcErrs++
			continue
		}
		pings = append(pings, us(time.Since(t0)))
	}
	res.setMedian("cluster.rpc.ping_us_p50", pings)
	res.setMedian("cluster.fleet_snapshot_us", timeCalls(100, 1, func() { fl.coord.Snapshot() }))

	snap := w0.eng.Snapshot()
	var enc []byte
	res.setMedian("cluster.snapshot.encode_us", timeCalls(200, 1, func() { enc = cluster.AppendSnapshot(enc[:0], snap) }))
	res.set("cluster.snapshot.bytes", float64(len(enc)))
	decodeOK := true
	res.setMedian("cluster.snapshot.decode_us", timeCalls(200, 1, func() {
		if _, err := cluster.DecodeSnapshot(enc); err != nil {
			decodeOK = false
		}
	}))
	res.checkf("snapshot_codec", decodeOK, "DecodeSnapshot(AppendSnapshot(s)) succeeded: %v", decodeOK)

	payload := make([]byte, 64)
	var buf bytes.Buffer
	frameOK := true
	frame := timeCalls(200, 50, func() {
		buf.Reset()
		if err := cluster.WriteFrame(&buf, cluster.MsgHeartbeat, payload); err != nil {
			frameOK = false
		}
		if _, _, err := cluster.ReadFrame(&buf); err != nil {
			frameOK = false
		}
	})
	for i := range frame {
		frame[i] *= 1e3 // us -> ns
	}
	res.setMedian("cluster.frame.roundtrip_ns", frame)
	res.checkf("frame_roundtrip", frameOK, "WriteFrame/ReadFrame over a buffer: %v", frameOK)

	// telemetry: Sampler.Sample on snapshots captured 20 ms apart, and
	// ToSeries over the history a controller holds.
	snaps := make([]*dsps.Snapshot, 30)
	for i := range snaps {
		snaps[i] = w0.eng.Snapshot()
		time.Sleep(20 * time.Millisecond)
	}
	sampler := telemetry.NewSamplerFiltered(0, "parse")
	sampler.Sample(snaps[0])
	var sampleUs []float64
	for _, s := range snaps[1:] {
		t0 := time.Now()
		sampler.Sample(s)
		sampleUs = append(sampleUs, us(time.Since(t0)))
	}
	res.setMedian("telemetry.sample_us", sampleUs)
	hist := fl.loops[0].ctrl.Sampler()
	if ids := hist.Workers(); len(ids) > 0 {
		wins := hist.Series(ids[0])
		res.setMedian("telemetry.to_series_us", timeCalls(100, 1, func() {
			telemetry.ToSeries(wins, telemetry.TargetProcTime, telemetry.FeatureConfig{Interference: true})
		}))
	}
}
