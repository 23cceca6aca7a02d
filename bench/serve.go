package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"predstream/internal/drnn"
	"predstream/internal/serve"
	"predstream/internal/timeseries"
)

const (
	serveRate    = 1000 // open-loop arrivals per second (Poisson)
	serveClients = 32   // closed-loop client goroutines
	serveWindows = 5    // closed-loop measured windows
	servePool    = 512  // distinct request windows drawn from the trace
	verifyEvery  = 100  // one reply in this many is checked against PredictOne
)

// timedBackend decorates serve.Backend: it times every PredictBatch and
// counts the rows, and on a traced run keeps each call as a span.
type timedBackend struct {
	serve.Backend
	rec *recorder

	mu      sync.Mutex
	batches []batchRecord
	seq     uint64
}

// batchRecord is one backend call.
type batchRecord struct {
	start, end time.Time
	rows       int
}

// PredictBatch implements serve.Backend.
func (b *timedBackend) PredictBatch(windows [][][]float64, out []float64) error {
	t0 := time.Now()
	err := b.Backend.PredictBatch(windows, out)
	t1 := time.Now()
	b.mu.Lock()
	b.seq++
	id := b.seq
	b.batches = append(b.batches, batchRecord{start: t0, end: t1, rows: len(windows)})
	b.mu.Unlock()
	if b.rec.enabled() {
		b.rec.add("serve.backend.predict_batch", 1_000_000_000+id, "", t0, t1)
	}
	return err
}

// take returns and clears the calls recorded so far.
func (b *timedBackend) take() []batchRecord {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.batches
	b.batches = nil
	return out
}

// serveRig is the serving stack under test and the request windows.
type serveRig struct {
	inf     *drnn.Inference
	backend *timedBackend // nil on an untraced run
	metrics *serve.Metrics
	coal    *serve.Coalescer
	pool    [][][]float64
	offered atomic.Int64 // Predict calls made by the benchmark's clients
}

// predict is one client call into the coalescer.
func (r *serveRig) predict(w [][]float64) (float64, error) {
	r.offered.Add(1)
	return r.coal.Predict(context.Background(), w)
}

// requestPool cuts servePool raw feature windows out of series at
// positions drawn from seed.
func requestPool(series *timeseries.Series, window int, seed int64) [][][]float64 {
	rng := rand.New(rand.NewSource(seed))
	pool := make([][][]float64, servePool)
	for i := range pool {
		at := rng.Intn(series.Len() - window)
		w := make([][]float64, window)
		for t := range w {
			w[t] = series.Points[at+t].Features
		}
		pool[i] = w
	}
	return pool
}

// openOutcome is one open-loop phase.
type openOutcome struct {
	latMs   []float64 // reply - due, per request, in arrival order
	lagUs   []float64 // request start - due
	waitUs  []float64 // traced requests: latency - their batch's backend time
	dueAt   []time.Duration
	offered int
	// backend decorator's view of the phase (traced runs).
	batchAvg, busyShare float64
	failed              int
	mismatch            int
	checked             int
	wall                time.Duration
}

// runOpenLoop offers Poisson arrivals for d and waits for every reply.
// Each request runs on its own goroutine and is timed from when it was
// due. tracedSeg, when set, says for a due offset whether the request is
// traced.
func (r *serveRig) runOpenLoop(seed int64, d time.Duration, rec *recorder, tracedSeg func(time.Duration) bool) *openOutcome {
	n := int(float64(serveRate) * d.Seconds())
	arrivals := poissonSchedule(seed, serveRate, n)
	o := &openOutcome{latMs: make([]float64, n), lagUs: make([]float64, n), dueAt: arrivals, offered: n}
	type reqTrace struct {
		start, reply time.Time
		traced       bool
	}
	traces := make([]reqTrace, n)
	var failed, mismatch, checked atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for i := 0; i < n; i++ {
		due := start.Add(arrivals[i])
		sleepUntil(due)
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			t0 := time.Now()
			w := r.pool[i%len(r.pool)]
			v, err := r.predict(w)
			t1 := time.Now()
			o.lagUs[i] = us(t0.Sub(due))
			o.latMs[i] = ms(t1.Sub(due))
			if err != nil {
				// Shed or errored: the worst sample.
				failed.Add(1)
				o.latMs[i] += failPenaltyMs
				return
			}
			if tracedSeg != nil && tracedSeg(arrivals[i]) {
				traces[i] = reqTrace{start: t0, reply: t1, traced: true}
				if i%16 == 0 {
					rec.add("request", uint64(i), "", due, t1)
					rec.add("gen.lag", uint64(i), "request", due, t0)
					rec.add("serve.coalescer.predict", uint64(i), "request", t0, t1)
				}
			}
			if i%verifyEvery == 0 {
				checked.Add(1)
				if want, err := r.inf.PredictOne(w); err != nil || want != v {
					mismatch.Add(1)
				}
			}
		}(i, due)
	}
	wg.Wait()
	o.wall = time.Since(start)
	o.failed, o.mismatch, o.checked = int(failed.Load()), int(mismatch.Load()), int(checked.Load())

	// Queue wait of a traced request: its latency minus the backend time of
	// its batch. Batches run one at a time, so a request's batch is the
	// last one that ended before its reply.
	if r.backend != nil {
		batches := r.backend.take()
		ends := make([]time.Time, len(batches))
		for i, b := range batches {
			ends[i] = b.end
		}
		for _, t := range traces {
			if !t.traced {
				continue
			}
			j := sort.Search(len(ends), func(k int) bool { return ends[k].After(t.reply) }) - 1
			if j < 0 {
				continue
			}
			o.waitUs = append(o.waitUs, us(t.reply.Sub(t.start)-batches[j].end.Sub(batches[j].start)))
		}
		var busy time.Duration
		rows := 0
		for _, b := range batches {
			busy += b.end.Sub(b.start)
			rows += b.rows
		}
		if len(batches) > 0 && o.wall > 0 {
			o.batchAvg = float64(rows) / float64(len(batches))
			o.busyShare = busy.Seconds() / o.wall.Seconds()
		}
	}
	return o
}

// bySegment sorts the phase's latency samples into n segments by due time.
func (o *openOutcome) bySegment(segment time.Duration, n int) [][]float64 {
	out := make([][]float64, n)
	for i, d := range o.dueAt {
		k := min(int(d/segment), n-1)
		out[k] = append(out[k], o.latMs[i])
	}
	return out
}

// runClosedLoop runs serveClients clients back to back for warm + nWin
// windows and returns the predictions completed in each measured window,
// and how many requests failed.
func (r *serveRig) runClosedLoop(warm, window time.Duration, nWin int) (perWin []int64, failed int64) {
	counts := make([]atomic.Int64, nWin)
	var fails atomic.Int64
	start := time.Now().Add(warm)
	end := start.Add(time.Duration(nWin) * window)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i += serveClients {
				_, err := r.predict(r.pool[i%len(r.pool)])
				now := time.Now()
				if !now.Before(end) {
					return
				}
				if err != nil {
					fails.Add(1)
					continue
				}
				if now.After(start) {
					counts[int(now.Sub(start)/window)].Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	perWin = make([]int64, nWin)
	for k := range counts {
		perWin[k] = counts[k].Load()
	}
	return perWin, fails.Load()
}

// runServePredict is the serving workload: phase A open loop (latency),
// phase B closed loop (throughput).
func runServePredict(rc runConfig) (*result, []span, error) {
	res := newResult(rc)
	rec := newRecorder()
	rig := &serveRig{}

	series, err := syntheticSeries(rc.seed)
	if err != nil {
		return nil, nil, err
	}
	// 5 epochs; a shorter run (the self-tests' smoke run) fits fewer.
	epochs := min(5, atLeast(5*rc.seconds/float64(rc.m.RunSeconds), 1))
	model := drnn.New(drnn.Config{Epochs: epochs, Patience: -1, Seed: rc.seed})
	fitTime, err := timedFit(model, series.Slice(0, 610)) // 600 windows of 10
	if err != nil {
		return nil, nil, err
	}
	rig.inf, err = model.Inference(false)
	if err != nil {
		return nil, nil, fmt.Errorf("inference handle: %w", err)
	}
	var backend serve.Backend = rig.inf
	if rc.traced {
		rig.backend = &timedBackend{Backend: rig.inf, rec: rec}
		backend = rig.backend
	}
	rig.metrics = serve.NewMetrics(nil)
	// Batching and admission are left at their defaults.
	rig.coal = serve.NewCoalescer(backend, serve.Options{}, rig.metrics)
	defer rig.coal.Close()
	rig.pool = requestPool(series, rig.inf.Window(), rc.seed)

	shareA, shareB := 0.6, 0.4
	if rc.traced {
		shareA, shareB = 0.4, 0.2
	}

	// Phase A: open loop. A warm-up second at the same rate first.
	warm := rig.runOpenLoop(rc.seed+1, rc.warm(time.Second), rec, nil)
	rc.setupDone(res, time.Now())
	rt := startRuntimeProbe()
	// The phase is cut into segments of about a second.
	nSeg := atLeast(rc.dur(shareA).Seconds(), 2)
	segment := rc.dur(shareA) / time.Duration(nSeg)
	var tracedSeg func(time.Duration) bool
	if rc.traced {
		rec.on.Store(true)
		tracedSeg = func(due time.Duration) bool { return (due/segment)%2 == 1 }
	}
	a := rig.runOpenLoop(rc.seed, rc.dur(shareA), rec, tracedSeg)
	rec.on.Store(false)
	segs := a.bySegment(segment, nSeg)
	res.notef("open loop: %d requests in %d segments of %v; p50 ms %.3g; p90 ms %.3g", len(a.latMs), len(segs), segment, perWindow(segs, 0.5), perWindow(segs, 0.9))
	res.setLatency(segs, segs)

	// Phase B: closed loop.
	winB := rc.dur(shareB / serveWindows)
	perWin, failedB := rig.runClosedLoop(rc.warm(500*time.Millisecond), winB, serveWindows)
	var rates []float64
	var doneB int64
	for _, c := range perWin {
		rates = append(rates, float64(c)/winB.Seconds())
		doneB += c
	}
	res.setMedian(mOps, rates)

	admitted, shed := int64(rig.metrics.Admitted.Value()), int64(rig.metrics.Shed.Value())
	res.Attempted = admitted + shed
	res.Failed = int64(a.failed) + int64(warm.failed) + failedB
	offered := rig.offered.Load()
	res.checkf("admission_conserved", admitted+shed == offered && offered >= int64(warm.offered+a.offered)+doneB,
		"admitted %d + shed %d, offered %d", admitted, shed, offered)
	res.checkf("no_shedding", shed == 0 && res.Failed == 0, "shed %d, failed %d", shed, res.Failed)
	res.checkf("replies_match_predict_one", a.mismatch == 0 && a.checked > 0, "%d of %d sampled replies differ from Inference.PredictOne", a.mismatch, a.checked)
	if !rc.traced {
		return res, nil, nil
	}

	// Per-layer metrics of the traced run.
	res.setTail("gen.lag_p99_us", a.lagUs, 0.99)
	res.set("serve.batch_size_avg", a.batchAvg)
	res.set("serve.backend_busy_share", a.busyShare)
	if len(a.waitUs) > 0 {
		res.setMedian("serve.queue_wait_us_p50", a.waitUs)
	}
	if total := admitted + shed; total > 0 {
		res.set("serve.shed_share", float64(shed)/float64(total))
	}
	var on, off []float64
	for i, l := range a.latMs {
		if tracedSeg(a.dueAt[i]) {
			on = append(on, l)
		} else {
			off = append(off, l)
		}
	}
	res.set("trace.overhead_pct", overheadPct(median(off), median(on), false))
	res.set("drnn.fit_s", fitTime.Seconds())
	if h := model.LossHistory(); len(h) > 0 {
		res.set("drnn.final_loss", h[len(h)-1])
	}
	rt.report(res, admitted+shed)

	if err := reportServeCalls(res, rig, rc.warm(2*time.Second)); err != nil {
		return nil, nil, err
	}
	reportMatKernels(res, rc.seed)
	return res, rec.all(), nil
}

// reportServeCalls times the serving layer's public functions one by one:
// direct batched inference, the wire codec, and a prediction over the
// raw-TCP frontend.
func reportServeCalls(res *result, rig *serveRig, tcpFor time.Duration) error {
	one := rig.pool[:1]
	sixteen := rig.pool[:16]
	out := make([]float64, 16)
	var callErr error
	call := func(windows [][][]float64) func() {
		return func() {
			if err := rig.inf.PredictBatch(windows, out[:len(windows)]); err != nil {
				callErr = err
			}
		}
	}
	res.setMedian("drnn.infer_b1_us", timeCalls(200, 4, call(one)))
	b16 := timeCalls(200, 1, call(sixteen))
	for i := range b16 {
		b16[i] /= 16
	}
	res.setMedian("drnn.infer_b16_us_per_row", b16)
	if callErr != nil {
		return fmt.Errorf("direct inference: %w", callErr)
	}

	var frame []byte
	codec := timeCalls(200, 20, func() {
		var err error
		frame, err = serve.EncodeWireFrame(frame[:0], rig.pool[0])
		if err == nil {
			_, err = serve.DecodeWireFrame(frame[4:])
		}
		if err != nil {
			callErr = err
		}
	})
	for i := range codec {
		codec[i] *= 1e3 // us -> ns
	}
	if callErr != nil {
		return fmt.Errorf("wire codec: %w", callErr)
	}
	res.setMedian("serve.wire.codec_ns", codec)

	// Raw-TCP round trip: 2 connections, closed loop, for tcpFor (2 s).
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	srv := serve.ServeTCP(ln, rig.coal)
	var mu sync.Mutex
	var rtts []float64
	var firstErr error
	var wg sync.WaitGroup
	deadline := time.Now().Add(tcpFor)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			err := tcpClient(srv.Addr().String(), rig.pool, c, deadline, func(d time.Duration) {
				mu.Lock()
				rtts = append(rtts, us(d))
				mu.Unlock()
			})
			if err != nil {
				mu.Lock()
				firstErr = errors.Join(firstErr, err)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	if err := srv.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	if firstErr != nil {
		return fmt.Errorf("tcp frontend: %w", firstErr)
	}
	res.setMedian("serve.tcp_rtt_us_p50", rtts)
	return nil
}

// tcpClient sends predictions over one connection until the deadline,
// reporting each round trip.
func tcpClient(addr string, pool [][][]float64, c int, deadline time.Time, report func(time.Duration)) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	var frame []byte
	for i := c; time.Now().Before(deadline); i += 2 {
		frame, err = serve.EncodeWireFrame(frame[:0], pool[i%len(pool)])
		if err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := conn.Write(frame); err != nil {
			return err
		}
		status, _, err := serve.ReadWireResponse(conn)
		if err != nil {
			return err
		}
		if status != serve.StatusOK {
			return fmt.Errorf("status %d", status)
		}
		report(time.Since(t0))
	}
	return nil
}
