package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"predstream/internal/apps/urlcount"
	"predstream/internal/dsps"
	"predstream/internal/workload"
)

// bench-urlcount: the one topology the three engine workloads share.
//
//	urls spout(1) -> parse(4, dynamic grouping) -> count(4, fields on host,
//	500 ms tick) -> report(1, global)
//
// It is built from the repository's own pieces (workload.URLGenerator,
// urlcount.HostOf, urlcount.SlidingCounter) but owned here, because the
// spout is the load generator: it stamps root i with msgID i, knows when
// root i was due, and times its ack.

const (
	topoName   = "bench-urlcount"
	parseTasks = 4
	countTasks = 4
	tickEvery  = 500 * time.Millisecond
	// traceEvery: one root in this many is traced in a traced run.
	traceEvery = 256
	// latEvery: a closed-loop spout times one root in this many, so that
	// reading the clock is not what the saturated spout spends its time on.
	latEvery = 16
	// inputCycle is how many pre-generated URLs the spout cycles through.
	inputCycle = 1 << 14
)

// appInputs is the pre-generated input of an engine workload: root i
// carries urls[i mod len].
type appInputs struct {
	urls  []string
	hosts []string // hosts[i] = urlcount.HostOf(urls[i]), the reference
}

// genInputs draws the URL cycle (Zipf 1.1 over 1000 URLs) from seed.
func genInputs(seed int64, n int) (*appInputs, error) {
	gen, err := workload.NewURLGenerator(rand.New(rand.NewSource(seed)), 1000, 1.1)
	if err != nil {
		return nil, err
	}
	in := &appInputs{urls: make([]string, n), hosts: make([]string, n)}
	intern := map[string]string{}
	for i := range in.urls {
		u := gen.Next()
		if c, ok := intern[u]; ok {
			u = c
		} else {
			intern[u] = u
		}
		in.urls[i] = u
		in.hosts[i] = urlcount.HostOf(u)
	}
	return in, nil
}

// reference returns the per-host totals of roots 0..n-1.
func (in *appInputs) reference(n int64) map[string]int64 {
	out := map[string]int64{}
	size := int64(len(in.hosts))
	full, rest := n/size, n%size
	for i, h := range in.hosts {
		c := full
		if int64(i) < rest {
			c++
		}
		if c > 0 {
			out[h] += c
		}
	}
	return out
}

// rootTrace is the timeline of one traced root, in nanoseconds since the
// spout's epoch. Each field is written by exactly one executor goroutine
// and read after the topology has shut down.
type rootTrace struct {
	traced               bool
	parseSeen, countSeen bool
	acked                bool
	due, emit, ack       int64
	parseStart, parseEnd int64
	countStart, countEnd int64
}

// appTrace holds the traced roots of one run.
type appTrace struct {
	slots []rootTrace
}

func newAppTrace() *appTrace { return &appTrace{slots: make([]rootTrace, 1<<17)} }

// slot returns root idx's trace slot, or nil if idx is not one of the
// traced roots (or the table is full).
func (t *appTrace) slot(idx int64) *rootTrace {
	if t == nil || idx%traceEvery != 0 {
		return nil
	}
	s := idx / traceEvery
	if s >= int64(len(t.slots)) {
		return nil
	}
	return &t.slots[s]
}

// spoutConfig is how a genSpout generates load and where it files its
// samples.
type spoutConfig struct {
	in *appInputs
	// rate > 0: open loop, root i due at i/rate; 0: closed loop, emit
	// whenever the engine asks.
	rate float64
	// warm is how long after Open the first measured window starts;
	// window and nWin lay out the measured windows after it.
	warm   time.Duration
	window time.Duration
	nWin   int
	// trace, when set, receives the timelines of traced roots, in the odd
	// windows only: the even ones price the tracing.
	trace *appTrace
	// armLater leaves the measured windows unscheduled until arm is
	// called (fleet_fault only knows when its set-up ends once it has).
	armLater bool
	// keepDue also files each latency sample's due time, so that samples
	// can be sorted into intervals decided while the run is under way.
	keepDue bool
}

// winStats is what the spout files per measured window.
type winStats struct {
	acked  int64
	latMs  []float64 // ack - due (open loop) or ack - emit (closed loop)
	dueNs  []int64   // with keepDue: due time of each latMs sample, since the epoch
	lagUs  []float64 // open loop: emit - due of the roots due in the window
	traced bool
}

// genSpout is the load generator. Every method runs on the spout's
// executor goroutine; the benchmark reads its fields after Shutdown.
type genSpout struct {
	dsps.BaseSpout
	cfg       spoutConfig
	collector dsps.SpoutCollector
	sched     pacedSchedule

	epoch   time.Time // set at Open
	opened  chan struct{}
	warmNs  atomic.Int64 // offset of the first measured window from the epoch
	next    int64
	nowNs   int64 // cached clock, closed loop
	ackTick int64

	emitted, acked, failed int64
	wins                   []winStats
	emitRing               []int64 // closed loop: emit time of sampled roots
}

func newGenSpout(cfg spoutConfig) *genSpout {
	s := &genSpout{cfg: cfg, opened: make(chan struct{}), wins: make([]winStats, cfg.nWin)}
	s.warmNs.Store(int64(cfg.warm))
	if cfg.armLater {
		s.warmNs.Store(math.MaxInt64)
	}
	if cfg.rate > 0 {
		s.sched = newPacedSchedule(cfg.rate)
	} else {
		s.emitRing = make([]int64, 1<<13)
	}
	perWin := 1 << 12
	if cfg.rate > 0 {
		perWin = int(cfg.rate*cfg.window.Seconds()) + 1024
	}
	for k := range s.wins {
		s.wins[k].latMs = make([]float64, 0, perWin)
		s.wins[k].traced = cfg.trace != nil && k%2 == 1
	}
	return s
}

// Open implements dsps.Spout.
func (s *genSpout) Open(_ dsps.TopologyContext, c dsps.SpoutCollector) {
	s.collector = c
	s.epoch = time.Now()
	close(s.opened)
}

// arm schedules the first measured window to start at t (armLater spouts).
func (s *genSpout) arm(t time.Time) { s.warmNs.Store(int64(t.Sub(s.epoch))) }

// winOf maps an offset from the epoch to a measured window index, or -1.
func (s *genSpout) winOf(ns int64) int {
	ns -= s.warmNs.Load()
	if ns < 0 {
		return -1
	}
	k := int(ns / int64(s.cfg.window))
	if k >= s.cfg.nWin {
		return -1
	}
	return k
}

// NextTuple implements dsps.Spout: one root per call.
func (s *genSpout) NextTuple() bool {
	i := s.next
	var dueNs, now int64
	if s.cfg.rate > 0 {
		now = int64(time.Since(s.epoch))
		dueNs = s.sched.dueNs(i)
		if now < dueNs {
			return false
		}
		s.nowNs = now
	} else {
		// Closed loop: only the roots whose latency is sampled read the
		// clock; the rest are filed under the last reading.
		if i%latEvery == 0 {
			s.nowNs = int64(time.Since(s.epoch))
			s.emitRing[(i/latEvery)&int64(len(s.emitRing)-1)] = s.nowNs
		}
		now, dueNs = s.nowNs, s.nowNs
	}
	if k := s.winOf(dueNs); k >= 0 && i%latEvery == 0 {
		if s.cfg.rate > 0 {
			s.wins[k].lagUs = append(s.wins[k].lagUs, float64(now-dueNs)/1e3)
		}
		if s.wins[k].traced {
			if sl := s.cfg.trace.slot(i); sl != nil {
				sl.traced, sl.due, sl.emit = true, dueNs, now
			}
		}
	}
	s.next++
	s.emitted++
	id := any(i) // boxed once: the same value is the tuple's idx field and the msgID
	s.collector.Emit(dsps.Values{s.cfg.in.urls[i&int64(len(s.cfg.in.urls)-1)], id}, id)
	return true
}

// Ack implements dsps.Spout.
func (s *genSpout) Ack(msgID any) {
	i := msgID.(int64)
	s.acked++
	open := s.cfg.rate > 0
	sampled := open || i%latEvery == 0
	// A saturated closed-loop spout re-reads the clock for the roots it
	// times and every 64th ack; the rest are filed under the cached time.
	if sampled || s.ackTick&63 == 0 {
		s.nowNs = int64(time.Since(s.epoch))
	}
	s.ackTick++
	now := s.nowNs
	if k := s.winOf(now); k >= 0 {
		s.wins[k].acked++
	}
	if !sampled {
		return
	}
	var startNs int64
	if open {
		startNs = s.sched.dueNs(i)
	} else {
		startNs = s.emitRing[(i/latEvery)&int64(len(s.emitRing)-1)]
	}
	// Open loop: a root belongs to the window it was due in. Closed loop:
	// to the window it completed in.
	k := s.winOf(now)
	if open {
		k = s.winOf(startNs)
	}
	if k >= 0 {
		s.wins[k].latMs = append(s.wins[k].latMs, float64(now-startNs)/1e6)
		if s.cfg.keepDue {
			s.wins[k].dueNs = append(s.wins[k].dueNs, startNs)
		}
	}
	if sl := s.cfg.trace.slot(i); sl != nil && sl.traced {
		sl.ack, sl.acked = now, true
	}
}

// Fail implements dsps.Spout: a failed or timed-out root is the worst
// latency sample of its window.
func (s *genSpout) Fail(msgID any) {
	i := msgID.(int64)
	s.failed++
	now := int64(time.Since(s.epoch))
	startNs := now
	if s.cfg.rate > 0 {
		startNs = s.sched.dueNs(i)
	}
	if k := s.winOf(startNs); k >= 0 {
		s.wins[k].latMs = append(s.wins[k].latMs, float64(now-startNs)/1e6+failPenaltyMs)
		if s.cfg.keepDue {
			s.wins[k].dueNs = append(s.wins[k].dueNs, startNs)
		}
	}
}

// failPenaltyMs is added to a failed root's elapsed time so that it sorts
// beyond every completed one.
const failPenaltyMs = 60_000

// parseBolt extracts the host and passes the root index along.
type parseBolt struct {
	dsps.BaseBolt
	collector dsps.OutputCollector
	epoch     func() time.Time
	trace     *appTrace
}

// Prepare implements dsps.Bolt.
func (b *parseBolt) Prepare(_ dsps.TopologyContext, c dsps.OutputCollector) { b.collector = c }

// Execute implements dsps.Bolt.
func (b *parseBolt) Execute(t *dsps.Tuple) {
	url, err := t.String("url")
	if err != nil {
		b.collector.Fail()
		return
	}
	idx, err := t.Int("idx")
	if err != nil {
		b.collector.Fail()
		return
	}
	sl := b.trace.slot(int64(idx))
	if sl != nil && sl.traced {
		sl.parseStart = int64(time.Since(b.epoch()))
	} else {
		sl = nil
	}
	b.collector.Emit(dsps.Values{urlcount.HostOf(url), idx})
	if sl != nil {
		sl.parseEnd, sl.parseSeen = int64(time.Since(b.epoch())), true
	}
}

// countBolt keeps the sliding window the application reports from and the
// lifetime per-host totals the benchmark checks against the reference.
type countBolt struct {
	dsps.BaseBolt
	collector dsps.OutputCollector
	counter   *urlcount.SlidingCounter
	totals    map[string]int64
	epoch     func() time.Time
	trace     *appTrace
}

// Prepare implements dsps.Bolt.
func (b *countBolt) Prepare(_ dsps.TopologyContext, c dsps.OutputCollector) {
	b.collector = c
	b.counter = urlcount.NewSlidingCounter(4)
	b.totals = map[string]int64{}
}

// Execute implements dsps.Bolt.
func (b *countBolt) Execute(t *dsps.Tuple) {
	if t.IsTick() {
		for h, c := range b.counter.Totals() {
			b.collector.Emit(dsps.Values{h, c})
		}
		b.counter.Advance()
		return
	}
	host, err := t.String("host")
	if err != nil {
		b.collector.Fail()
		return
	}
	idx, err := t.Int("idx")
	if err != nil {
		b.collector.Fail()
		return
	}
	sl := b.trace.slot(int64(idx))
	if sl != nil && sl.traced {
		sl.countStart = int64(time.Since(b.epoch()))
	} else {
		sl = nil
	}
	b.counter.Add(host)
	b.totals[host]++
	if sl != nil {
		sl.countEnd, sl.countSeen = int64(time.Since(b.epoch())), true
	}
}

// reportBolt is the sink: the latest windowed count per host.
type reportBolt struct {
	dsps.BaseBolt
	latest map[string]int
}

// Prepare implements dsps.Bolt.
func (r *reportBolt) Prepare(dsps.TopologyContext, dsps.OutputCollector) {
	r.latest = map[string]int{}
}

// Execute implements dsps.Bolt.
func (r *reportBolt) Execute(t *dsps.Tuple) {
	host, err := t.String("host")
	if err != nil {
		return
	}
	n, err := t.Int("count")
	if err != nil {
		return
	}
	r.latest[host] = n
}

// appTopology is one built bench-urlcount and the handles the benchmark
// keeps on it.
type appTopology struct {
	topo  *dsps.Topology
	dg    *dsps.DynamicGrouping
	spout *genSpout

	mu     sync.Mutex
	counts []*countBolt
	report *reportBolt
}

// buildTopology assembles bench-urlcount around the given spout. parseCost
// is the simulated per-tuple service cost of parse (0 for none).
func buildTopology(sp *genSpout, parseCost time.Duration, trace *appTrace) (*appTopology, error) {
	at := &appTopology{spout: sp, report: &reportBolt{}}
	epoch := func() time.Time { return sp.epoch }
	b := dsps.NewTopologyBuilder(topoName)
	b.SetSpout("urls", func() dsps.Spout { return sp }, 1, "url", "idx")
	parse := b.SetBolt("parse", func() dsps.Bolt {
		return &parseBolt{epoch: epoch, trace: trace}
	}, parseTasks, "host", "idx").WithExecCost(parseCost)
	at.dg = parse.DynamicGrouping("urls")
	b.SetBolt("count", func() dsps.Bolt {
		cb := &countBolt{epoch: epoch, trace: trace}
		at.mu.Lock()
		at.counts = append(at.counts, cb)
		at.mu.Unlock()
		return cb
	}, countTasks, "host", "count").
		FieldsGrouping("parse", "host").
		WithTickInterval(tickEvery)
	b.SetBolt("report", func() dsps.Bolt { return at.report }, 1).GlobalGrouping("count")
	topo, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("build %s: %w", topoName, err)
	}
	at.topo = topo
	return at, nil
}

// hostTotals sums the count bolts' lifetime totals. Call after Shutdown.
func (at *appTopology) hostTotals() map[string]int64 {
	out := map[string]int64{}
	at.mu.Lock()
	defer at.mu.Unlock()
	for _, cb := range at.counts {
		for h, c := range cb.totals {
			out[h] += c
		}
	}
	return out
}
