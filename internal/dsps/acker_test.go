package dsps

import (
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// testAcker builds an acker on the real clock whose chunks hold 64 slots,
// plus one spout's pool holding the first chunk.
func testAcker(timeout time.Duration) (*acker, *slotPool) {
	a := newAcker(timeout, 64, nil)
	p := &slotPool{}
	a.grow(p)
	return a, p
}

// fakeClock drives both acker clocks from one counter.
type fakeClock struct{ ns int64 }

func (c *fakeClock) install(a *acker) {
	a.nowNs = func() int64 { return c.ns }
	a.sweepNow = func() time.Time { return time.Unix(0, c.ns) }
}

// xorOp is the op a bolt sends after consuming edge consumed of root in
// slot and producing the given edges.
func xorOp(root uint64, slot uint32, consumed uint64, produced ...uint64) ackOp {
	for _, e := range produced {
		consumed ^= e
	}
	return ackOp{root: root, xor: consumed, slot: slot}
}

// failOp is the op a bolt sends when it fails root.
func failOp(root uint64, slot uint32) ackOp { return ackOp{root: root, slot: slot, fail: true} }

// deliver does what the spout loop does with its queued completions — the
// slots go back to the pool — and returns them.
func deliver(a *acker, p *slotPool) []ackDone {
	out := append([]ackDone(nil), p.done[:p.nDone]...)
	for _, d := range out {
		a.release(p, d.slot)
	}
	clear(p.done[:p.nDone])
	p.nDone = 0
	return out
}

func TestAckerSlotLayout(t *testing.T) {
	// No lock and no owner id: only the owning spout touches a slot.
	if got := unsafe.Sizeof(ackSlot{}); got != 40 {
		t.Fatalf("ackSlot is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(ackOp{}); got != 24 {
		t.Fatalf("ackOp is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(Tuple{}); got != 96 {
		t.Fatalf("Tuple is %d bytes, want 96", got)
	}
}

func TestAckerLinearChainCompletes(t *testing.T) {
	a, p := testAcker(time.Minute)
	// Spout emits edge e1; bolt A consumes e1 and produces e2; bolt B
	// consumes e2 and produces nothing.
	const root, e1, e2 = 100, 11, 22
	s := a.register(p, root, e1, "m1")
	if a.apply(p, xorOp(root, s, e1, e2)); p.nDone != 0 {
		t.Fatal("completed before leaf acked")
	}
	a.apply(p, xorOp(root, s, e2))
	if p.nDone != 1 {
		t.Fatalf("%d completions queued, want 1", p.nDone)
	}
	if d := p.done[0]; !d.ok || d.msgID != "m1" || d.slot != s {
		t.Fatalf("completion = %+v", d)
	}
	if a.inFlight() != 1 {
		t.Fatalf("inFlight = %d before the spout delivered the completion", a.inFlight())
	}
	deliver(a, p)
	if a.inFlight() != 0 {
		t.Fatal("slot still counted after delivery")
	}
}

// The XOR tree is order-independent: the count bolt's op may reach the
// spout before the op of the parse bolt that created count's input edge.
func TestAckerOutOfOrderTransitions(t *testing.T) {
	a, p := testAcker(time.Minute)
	const root, spoutEdge, parseEdge = 200, 31, 32
	s := a.register(p, root, spoutEdge, "m")
	if a.apply(p, xorOp(root, s, parseEdge)); p.nDone != 0 { // count acks first
		t.Fatal("completed on count's op alone")
	}
	a.apply(p, xorOp(root, s, spoutEdge, parseEdge)) // then parse's
	if d := deliver(a, p); len(d) != 1 || !d[0].ok {
		t.Fatalf("completions = %+v", d)
	}
}

func TestAckerFanOutTree(t *testing.T) {
	a, p := testAcker(time.Minute)
	// Spout emits two copies (e1, e2); each bolt copy emits two more.
	const root = 300
	edges := []uint64{1, 2, 3, 4, 5, 6}
	s := a.register(p, root, edges[0]^edges[1], "m")
	a.apply(p, xorOp(root, s, edges[0], edges[2], edges[3]))
	a.apply(p, xorOp(root, s, edges[1], edges[4], edges[5]))
	for i, leaf := range edges[2:] {
		if p.nDone != 0 {
			t.Fatalf("completed before leaf %d", i)
		}
		a.apply(p, xorOp(root, s, leaf))
	}
	if d := deliver(a, p); len(d) != 1 || !d[0].ok || d[0].msgID != "m" {
		t.Fatalf("completions = %+v", d)
	}
}

func TestAckerExplicitFail(t *testing.T) {
	a, p := testAcker(time.Minute)
	s := a.register(p, 1, 5, "m")
	a.apply(p, failOp(1, s))
	if p.nDone != 1 || p.done[0].ok || p.done[0].slot != s || p.done[0].msgID != "m" {
		t.Fatalf("completions = %+v", p.done[:p.nDone])
	}
	// Late ops for a failed root are dropped, before and after delivery.
	a.apply(p, xorOp(1, s, 5))
	a.apply(p, failOp(1, s))
	if p.nDone != 1 {
		t.Fatalf("failed root completed again: %d completions", p.nDone)
	}
	deliver(a, p)
	a.apply(p, failOp(1, s))
	if p.nDone != 0 || a.inFlight() != 0 {
		t.Fatalf("op after delivery: %d completions, inFlight %d", p.nDone, a.inFlight())
	}
}

func TestAckerTimeoutSweep(t *testing.T) {
	a, p := testAcker(10 * time.Millisecond)
	var clk fakeClock
	clk.install(a)
	clk.ns = 1e9
	a.register(p, 1, 5, "old")
	clk.ns += int64(20 * time.Millisecond)
	fresh := a.register(p, 2, 6, "fresh")
	a.sweep(p)
	expired := deliver(a, p)
	if len(expired) != 1 {
		t.Fatalf("sweep failed %d roots, want 1", len(expired))
	}
	if expired[0].ok || expired[0].msgID != "old" {
		t.Fatalf("expired = %+v", expired[0])
	}
	if a.inFlight() != 1 {
		t.Fatalf("inFlight = %d, want the fresh root", a.inFlight())
	}
	a.apply(p, xorOp(2, fresh, 6))
	if d := deliver(a, p); len(d) != 1 || !d[0].ok {
		t.Fatalf("fresh root after sweep: %+v", d)
	}
}

// Each spout sweeps its own slots only, and delivers its expirations in
// (start, root id) order behind the completions already queued.
func TestAckerSweepOrdersByStartThenRoot(t *testing.T) {
	a := newAcker(time.Millisecond, 8, nil)
	var clk fakeClock
	clk.install(a)
	clk.ns = 1e9
	p, other := &slotPool{owner: 1}, &slotPool{owner: 2}
	a.grow(p)
	a.grow(other)
	// Register in an order unrelated to (start, root) so the slab's slot
	// order cannot produce the expected order by accident.
	a.register(p, 30, 1, "b")
	a.register(other, 5, 1, "other")
	a.register(p, 10, 1, "a")
	clk.ns -= 5
	a.register(p, 20, 1, "first")
	done := a.register(p, 40, 7, "acked")
	a.apply(p, xorOp(40, done, 7))
	clk.ns += int64(time.Second)
	a.sweep(p)
	var got []any
	for _, d := range deliver(a, p) {
		got = append(got, d.msgID)
	}
	if len(got) != 4 || got[0] != "acked" || got[1] != "first" || got[2] != "a" || got[3] != "b" {
		t.Fatalf("delivery order = %v, want [acked first a b]", got)
	}
	if other.nDone != 0 || a.inFlight() != 1 {
		t.Fatalf("sweep reached the other spout's slots: %d queued there, inFlight %d", other.nDone, a.inFlight())
	}
}

func TestAckerSweepDisabledWithoutTimeout(t *testing.T) {
	a, p := testAcker(0)
	a.register(p, 1, 5, "m")
	if a.sweep(p); p.nDone != 0 {
		t.Fatalf("sweep with no timeout failed %d", p.nDone)
	}
}

func TestAckerUnknownRootIgnored(t *testing.T) {
	a, p := testAcker(time.Minute)
	s := a.register(p, 1, 5, "m")
	a.apply(p, xorOp(999, s, 5))
	a.apply(p, failOp(999, s))
	if p.nDone != 0 {
		t.Fatal("op for another root completed the slot")
	}
	a.apply(p, xorOp(1, s, 5))
	if d := deliver(a, p); len(d) != 1 || !d[0].ok {
		t.Fatalf("occupant disturbed by foreign ops: %+v", d)
	}
}

// An op for a root that timed out, arriving after the spout took the
// root's slot back and reused it, must be dropped; the new occupant must
// still complete on its own edges.
func TestAckerStragglerOnReusedSlotDropped(t *testing.T) {
	a, p := testAcker(10 * time.Millisecond)
	var clk fakeClock
	clk.install(a)
	clk.ns = 1e9
	const oldRoot, oldEdge = 7, 0x55
	s := a.register(p, oldRoot, oldEdge, "old")
	clk.ns += int64(time.Second)
	a.sweep(p)
	if expired := deliver(a, p); len(expired) != 1 || expired[0].slot != s {
		t.Fatalf("sweep = %+v", expired)
	}
	// The pool is LIFO: the next root lands in the slot just released.
	// Give it the straggler's edge so that, were the op applied, it would
	// complete the wrong root.
	const newRoot = 8
	if got := a.register(p, newRoot, oldEdge, "new"); got != s {
		t.Fatalf("new root in slot %d, want reused slot %d", got, s)
	}
	a.apply(p, xorOp(oldRoot, s, oldEdge))
	a.apply(p, failOp(oldRoot, s))
	if p.nDone != 0 {
		t.Fatal("straggler completed the slot's new occupant")
	}
	a.apply(p, xorOp(newRoot, s, oldEdge))
	if d := deliver(a, p); len(d) != 1 || !d[0].ok || d[0].msgID != "new" {
		t.Fatalf("new occupant: %+v", d)
	}
}

// A spout that takes more slots than its pool holds grows the slab by a
// chunk; slots already handed out stay where they are, and the owner
// directory names the spout for every chunk it grew.
func TestAckerSlabGrowsByWholeChunks(t *testing.T) {
	a := newAcker(time.Minute, 3, nil) // rounds up to 4-slot chunks
	p, other := &slotPool{owner: 7}, &slotPool{owner: 9}
	a.grow(p)
	a.grow(other)
	first := a.register(p, 1, 1, "m")
	before := a.slot(first)
	seen := map[uint32]uint64{first: 1}
	for root := uint64(2); root <= 9; root++ {
		s := a.register(p, root, root, "m")
		if _, dup := seen[s]; dup {
			t.Fatalf("slot %d handed out twice", s)
		}
		if s>>a.shift == 1 {
			t.Fatalf("slot %d is in the other spout's chunk", s)
		}
		seen[s] = root
	}
	dir := a.dir.Load()
	if n := len(dir.chunks); n != 4 {
		t.Fatalf("%d chunks after 9 roots in 4-slot chunks (plus one for the other spout), want 4", n)
	}
	if want := []int{7, 9, 7, 7}; len(dir.owners) != 4 || dir.owners[0] != want[0] || dir.owners[1] != want[1] ||
		dir.owners[2] != want[2] || dir.owners[3] != want[3] {
		t.Fatalf("owner directory = %v, want %v", dir.owners, want)
	}
	if a.slot(first) != before {
		t.Fatal("growth moved a live slot")
	}
	for s, root := range seen {
		if a.owner(s) != 7 {
			t.Fatalf("slot %d owned by %d, want 7", s, a.owner(s))
		}
		a.apply(p, xorOp(root, s, root))
	}
	if d := deliver(a, p); len(d) != len(seen) {
		t.Fatalf("%d of %d roots completed", len(d), len(seen))
	}
	if a.inFlight() != 0 {
		t.Fatalf("inFlight = %d after delivering all", a.inFlight())
	}
}

func TestAckerLatencyMeasured(t *testing.T) {
	a, p := testAcker(time.Minute)
	stepNs := int64(0)
	a.nowNs = func() int64 {
		stepNs += int64(10 * time.Millisecond)
		return stepNs
	}
	s := a.register(p, 1, 5, "m") // now = +10ms
	a.apply(p, xorOp(1, s, 5))    // now = +20ms
	if d := deliver(a, p); len(d) != 1 || d[0].latency != 10*time.Millisecond {
		t.Fatalf("completions = %+v", d)
	}
}

// reusingSpout's Ack registers and completes a root in the slot just
// freed — what happens when an Ack emits, its send blocks, and the spout
// applies the ops that finish the new root while it waits.
type reusingSpout struct {
	BaseSpout
	a     *acker
	p     *slotPool
	left  int
	acked []any
}

func (s *reusingSpout) Open(TopologyContext, SpoutCollector) {}
func (s *reusingSpout) NextTuple() bool                      { return false }

func (s *reusingSpout) Ack(id any) {
	s.acked = append(s.acked, id)
	if s.left > 0 {
		s.left--
		root := uint64(100 + s.left)
		i := s.a.register(s.p, root, 7, s.left)
		s.a.apply(s.p, xorOp(root, i, 7))
	}
}

// Completions queued by a callback during delivery are delivered in the
// same pass, even when they outnumber the room left behind the ones
// already delivered.
func TestDeliverDoneSurvivesCallbacksThatCompleteRoots(t *testing.T) {
	a := newAcker(time.Minute, 1, nil) // one-slot chunks: each new root reuses the freed slot
	tk := &task{stage: &counterStage{}}
	a.grow(&tk.slots)
	sp := &reusingSpout{a: a, p: &tk.slots, left: 5}
	tk.spout = sp
	rt := &runningTopology{acker: a}
	s := a.register(&tk.slots, 1, 3, "first")
	a.apply(&tk.slots, xorOp(1, s, 3))
	rt.deliverDone(tk)
	want := []any{"first", 4, 3, 2, 1, 0}
	if len(sp.acked) != len(want) {
		t.Fatalf("acked %v, want %v", sp.acked, want)
	}
	for i := range want {
		if sp.acked[i] != want[i] {
			t.Fatalf("acked %v, want %v", sp.acked, want)
		}
	}
	if p := tk.slots; p.head != 0 || p.nDone != 0 || a.inFlight() != 0 || tk.stage.acked != 6 {
		t.Fatalf("after delivery: head %d nDone %d inFlight %d staged acks %d", p.head, p.nDone, a.inFlight(), tk.stage.acked)
	}
}

// BenchmarkAckerRoot prices one acked root through the slab the way the
// engine drives it: the benchmark goroutine is the spout — it registers
// roots, applies the ops that come back and takes the slots back — and a
// second goroutine is the bolts, building each root's two ops (a relay's
// and a sink's) from the roots it is handed. Roots and ops move in
// batches, like the data plane's. ns/op is per root.
func BenchmarkAckerRoot(b *testing.B) {
	const batch, pending = 32, 4096
	type root struct {
		slot       uint32
		id, e1, e2 uint64
	}
	a := newAcker(time.Minute, pending, nil)
	p := &slotPool{}
	a.grow(p)
	// At most pending/batch root batches are in flight, each answered by
	// one op batch, so no send below ever blocks.
	fresh := make(chan []root, pending/batch)
	rootFree := make(chan []root, pending/batch)
	ops := make(chan []ackOp, pending/batch)
	opFree := make(chan []ackOp, pending/batch)
	for range pending / batch {
		rootFree <- make([]root, batch)
		opFree <- make([]ackOp, 0, 2*batch)
	}
	go func() {
		for rb := range fresh {
			ob := (<-opFree)[:0]
			for _, r := range rb {
				ob = append(ob, xorOp(r.id, r.slot, r.e1, r.e2), xorOp(r.id, r.slot, r.e2))
			}
			rootFree <- rb
			ops <- ob
		}
	}()
	var ids uint64
	next := func() uint64 { ids += 0x9e3779b97f4a7c15; return ids | 1 }
	b.ReportAllocs()
	b.ResetTimer()
	registered, completed := 0, 0
	for completed < b.N {
		if k := min(batch, b.N-registered); k > 0 && p.inUse() <= pending-batch {
			rb := (<-rootFree)[:k]
			for i := range rb {
				r := root{id: next(), e1: next(), e2: next()}
				r.slot = a.register(p, r.id, r.e1, nil)
				rb[i] = r
			}
			registered += k
			fresh <- rb
			continue
		}
		ob := <-ops
		for _, op := range ob {
			a.apply(p, op)
		}
		opFree <- ob
		for i := range p.nDone {
			a.release(p, p.done[i].slot)
		}
		completed += p.nDone
		p.nDone = 0
	}
	b.StopTimer()
	close(fresh)
}

// burstSpout emits burst anchored roots per NextTuple call.
type burstSpout struct {
	countingSpout
	burst int
}

func (s *burstSpout) NextTuple() bool {
	if s.next >= s.limit {
		return false
	}
	for range s.burst {
		s.collector.Emit(Values{s.next}, s.next)
		s.next++
	}
	return true
}

// A spout may emit several roots in one NextTuple, so it can hold more
// incomplete roots than MaxSpoutPending. Its slab then grows past its
// first chunk, and every root must still complete exactly once.
func TestSpoutEmittingPastMaxSpoutPendingCompletes(t *testing.T) {
	// The ring plane is the one data plane; the subtest keeps its name.
	t.Run("rings", func(t *testing.T) {
		const n = 3000
		spout := &burstSpout{countingSpout: countingSpout{limit: n}, burst: 3}
		b := NewTopologyBuilder("burst")
		b.SetSpout("src", func() Spout { return spout }, 1, "n")
		b.SetBolt("relay", func() Bolt { return &relayBolt{} }, 2, "n").ShuffleGrouping("src")
		b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("relay")
		topo, _ := b.Build()
		c := testCluster(func(cfg *ClusterConfig) { cfg.MaxSpoutPending = 4 })
		if err := c.Submit(topo, SubmitConfig{}); err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown()
		if !c.Drain(10 * time.Second) {
			t.Fatal("did not drain")
		}
		if acked, failed := spout.acked.Load(), spout.failed.Load(); acked != n || failed != 0 {
			t.Fatalf("acked %d failed %d, want %d and 0", acked, failed, n)
		}
		if got := c.InFlight(); got != 0 {
			t.Fatalf("in flight = %d", got)
		}
		snap := c.Snapshot()
		src := snap.ComponentTasks("src")[0]
		if src.Emitted != n || src.Acked+src.Failed != src.Emitted {
			t.Fatalf("spout emitted %d, acked %d, failed %d", src.Emitted, src.Acked, src.Failed)
		}
		for _, comp := range []string{"relay", "sink"} {
			total := int64(0)
			for _, ts := range snap.ComponentTasks(comp) {
				total += ts.Executed
			}
			if total != n {
				t.Fatalf("%s executed %d, want %d", comp, total, n)
			}
		}
		if chunks := len(c.snapshotTops()[0].acker.dir.Load().chunks); chunks < 2 {
			t.Fatalf("slab has %d chunk(s): the over-range emits never grew it", chunks)
		}
	})
}

// fanBolt emits each input fan times.
type fanBolt struct {
	BaseBolt
	fan int
	c   OutputCollector
}

func (b *fanBolt) Prepare(_ TopologyContext, c OutputCollector) { b.c = c }
func (b *fanBolt) Execute(t *Tuple) {
	for range b.fan {
		b.c.Emit(t.Values)
	}
}

// Every bolt a root passes sends its spout an op, so ops outnumber roots
// and a bolt can find its ack ring to the spout full while the spout
// blocks on that bolt's full queue. The spout must keep applying ops
// while it is backpressured, or the two wait on each other forever.
func TestBackpressuredSpoutWithFullAckChannelDoesNotWedge(t *testing.T) {
	const n = 2000
	spout := &burstSpout{countingSpout: countingSpout{limit: n}, burst: 16}
	b := NewTopologyBuilder("wedge")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("fan", func() Bolt { return &fanBolt{fan: 4} }, 2, "n").ShuffleGrouping("src")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 2).ShuffleGrouping("fan")
	topo, _ := b.Build()
	c := testCluster(func(cfg *ClusterConfig) {
		cfg.MaxSpoutPending = 2
		cfg.QueueSize = 2
		// A wedge must show as a drain failure, not be papered over by
		// the timeout sweep failing the stuck roots.
		cfg.AckTimeout = time.Minute
	})
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(20 * time.Second) {
		t.Fatalf("wedged: acked %d of %d, %d in flight", spout.acked.Load(), n, c.InFlight())
	}
	if acked, failed := spout.acked.Load(), spout.failed.Load(); acked != n || failed != 0 {
		t.Fatalf("acked %d failed %d, want %d and 0", acked, failed, n)
	}
}

// reentrySpout emits bursts of anchored roots and panics if the engine
// calls Ack or Fail while its NextTuple is running.
type reentrySpout struct {
	burstSpout
	inNext atomic.Bool
}

func (s *reentrySpout) NextTuple() bool {
	s.inNext.Store(true)
	defer s.inNext.Store(false)
	return s.burstSpout.NextTuple()
}

func (s *reentrySpout) Ack(id any) {
	if s.inNext.Load() {
		panic("Ack called from inside NextTuple")
	}
	s.burstSpout.Ack(id)
}

func (s *reentrySpout) Fail(id any) {
	if s.inNext.Load() {
		panic("Fail called from inside NextTuple")
	}
	s.burstSpout.Fail(id)
}

// A spout blocked on backpressure inside NextTuple applies ops, and so
// completes roots, but their Ack/Fail wait for the loop top.
func TestSpoutAckNeverReentersNextTuple(t *testing.T) {
	const n = 2000
	spout := &reentrySpout{burstSpout: burstSpout{countingSpout: countingSpout{limit: n}, burst: 16}}
	b := NewTopologyBuilder("reentry")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("fan", func() Bolt { return &fanBolt{fan: 4} }, 1, "n").ShuffleGrouping("src")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("fan")
	topo, _ := b.Build()
	c := testCluster(func(cfg *ClusterConfig) {
		cfg.MaxSpoutPending = 4
		cfg.QueueSize = 4
	})
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(20 * time.Second) {
		t.Fatalf("did not drain: acked %d of %d", spout.acked.Load(), n)
	}
	if acked := spout.acked.Load(); acked != n {
		t.Fatalf("acked %d, want %d", acked, n)
	}
	if waits := c.Snapshot().ComponentTasks("src")[0].BackpressureWaits; waits == 0 {
		t.Fatal("the spout never blocked on backpressure: the test exercised nothing")
	}
}

// batchSpout emits one full batch of anchored roots in a single
// NextTuple, then nothing.
type batchSpout struct {
	countingSpout
}

func (s *batchSpout) NextTuple() bool {
	if s.next > 0 {
		return false
	}
	for s.next < s.limit {
		s.collector.Emit(Values{s.next}, s.next)
		s.next++
	}
	return true
}

// Executors stage their counters, but a snapshot taken while a bolt is
// partway through a batch of slow tuples must still see it advance: a
// controller that only saw per-batch counts would take a slow worker for
// a stalled one.
func TestSnapshotSeesExecutedAdvanceMidBatch(t *testing.T) {
	spout := &batchSpout{countingSpout{limit: batchSize}}
	b := NewTopologyBuilder("midbatch")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("slow", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("src").
		WithExecCost(2 * time.Millisecond)
	topo, _ := b.Build()
	c := testCluster(func(cfg *ClusterConfig) { cfg.Delayer = RealDelayer{} })
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	executed := map[int64]bool{}
	var lastLatency time.Duration
	latencyAdvanced := 0
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		ts := c.Snapshot().ComponentTasks("slow")[0]
		if ts.Executed == batchSize {
			break
		}
		if ts.Executed > 0 {
			executed[ts.Executed] = true
			if ts.ExecLatency > lastLatency {
				latencyAdvanced++
			}
			lastLatency = ts.ExecLatency
		}
		time.Sleep(time.Millisecond)
	}
	if len(executed) < 3 || latencyAdvanced < 3 {
		t.Fatalf("mid-batch snapshots saw executed counts %v and exec latency advance %d times; want each to advance at least 3 times",
			executed, latencyAdvanced)
	}
}
