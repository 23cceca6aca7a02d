package dsps

import (
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

func TestAckerSlotLayout(t *testing.T) {
	if got := unsafe.Sizeof(ackSlot{}); got != 64 {
		t.Fatalf("ackSlot is %d bytes, want one 64-byte cache line", got)
	}
	// The slot rides in the padding after Tuple.lane: the tuple stays at
	// the size it had before it carried one.
	if got := unsafe.Offsetof(Tuple{}.slot); got != unsafe.Offsetof(Tuple{}.lane)+4 {
		t.Fatalf("Tuple.slot at offset %d, want lane's padding", got)
	}
	if got := unsafe.Sizeof(Tuple{}); got != 112 {
		t.Fatalf("Tuple is %d bytes, want 112", got)
	}
}

func TestAckerLinearChainCompletes(t *testing.T) {
	a, p := testAcker(time.Minute)
	// Spout emits edge e1; bolt A consumes e1 and produces e2; bolt B
	// consumes e2 and produces nothing.
	const root, e1, e2 = 100, 11, 22
	s := a.register(p, root, e1, "m1", 0, 0)
	if _, done := a.transition(s, root, e1, []uint64{e2}); done {
		t.Fatal("completed before leaf acked")
	}
	r, done := a.transition(s, root, e2, nil)
	if !done || !r.ok || r.msgID != "m1" || r.slot != s {
		t.Fatalf("result = %+v, done = %v", r, done)
	}
	if a.inFlight() != 1 {
		t.Fatalf("inFlight = %d before the spout released the slot", a.inFlight())
	}
	a.release(p, r.slot)
	if a.inFlight() != 0 {
		t.Fatal("slot still counted after release")
	}
}

func TestAckerOutOfOrderTransitions(t *testing.T) {
	// The XOR tree is order-independent: the downstream ack may arrive
	// before the upstream transition that created its edge.
	a, p := testAcker(time.Minute)
	const root, e1, e2 = 200, 31, 32
	s := a.register(p, root, e1, "m", 0, 0)
	if _, done := a.transition(s, root, e2, nil); done { // leaf acks first
		t.Fatal("completed on leaf alone")
	}
	r, done := a.transition(s, root, e1, []uint64{e2}) // then the producer
	if !done || !r.ok {
		t.Fatalf("result = %+v, done = %v", r, done)
	}
}

func TestAckerFanOutTree(t *testing.T) {
	a, p := testAcker(time.Minute)
	// Spout emits two copies (e1, e2); each bolt copy emits two more.
	const root = 300
	edges := []uint64{1, 2, 3, 4, 5, 6}
	s := a.register(p, root, edges[0]^edges[1], "m", 0, 0)
	if _, done := a.transition(s, root, edges[0], []uint64{edges[2], edges[3]}); done {
		t.Fatal("completed early")
	}
	if _, done := a.transition(s, root, edges[1], []uint64{edges[4], edges[5]}); done {
		t.Fatal("completed early")
	}
	for i, leaf := range edges[2:] {
		r, done := a.transition(s, root, leaf, nil)
		if last := i == len(edges[2:])-1; done != last {
			t.Fatalf("leaf %d: done = %v", i, done)
		} else if last && (!r.ok || r.msgID != "m") {
			t.Fatalf("result = %+v", r)
		}
	}
}

func TestAckerExplicitFail(t *testing.T) {
	a, p := testAcker(time.Minute)
	s := a.register(p, 1, 5, "m", 0, 3)
	r, done := a.fail(s, 1)
	if !done || r.ok || r.spoutTID != 3 || r.slot != s {
		t.Fatalf("result = %+v, done = %v", r, done)
	}
	// Late transitions for a failed root are ignored.
	if _, done := a.transition(s, 1, 5, nil); done {
		t.Fatal("failed root completed again")
	}
	if _, done := a.fail(s, 1); done {
		t.Fatal("failed root failed twice")
	}
}

func TestAckerTimeoutSweep(t *testing.T) {
	a, p := testAcker(10 * time.Millisecond)
	var clk fakeClock
	clk.install(a)
	clk.ns = 1e9
	a.register(p, 1, 5, "old", 0, 0)
	clk.ns += int64(20 * time.Millisecond)
	fresh := a.register(p, 2, 6, "fresh", 0, 0)
	expired := a.sweep()
	if len(expired) != 1 {
		t.Fatalf("sweep failed %d roots, want 1", len(expired))
	}
	if expired[0].ok || expired[0].msgID != "old" {
		t.Fatalf("expired = %+v", expired[0])
	}
	a.release(p, expired[0].slot)
	if a.inFlight() != 1 {
		t.Fatalf("inFlight = %d, want the fresh root", a.inFlight())
	}
	if r, done := a.transition(fresh, 2, 6, nil); !done || !r.ok {
		t.Fatalf("fresh root after sweep: %+v, %v", r, done)
	}
}

func TestAckerSweepOrdersByStartThenRoot(t *testing.T) {
	a, p := testAcker(time.Millisecond)
	var clk fakeClock
	clk.install(a)
	clk.ns = 1e9
	// Register in an order unrelated to (start, root) so the slab's slot
	// order cannot produce the expected order by accident.
	a.register(p, 30, 1, "b", 0, 0)
	a.register(p, 10, 1, "a", 0, 0)
	clk.ns -= 5
	a.register(p, 20, 1, "first", 0, 0)
	clk.ns += int64(time.Second)
	var got []any
	for _, r := range a.sweep() {
		got = append(got, r.msgID)
	}
	if len(got) != 3 || got[0] != "first" || got[1] != "a" || got[2] != "b" {
		t.Fatalf("sweep order = %v, want [first a b]", got)
	}
}

func TestAckerSweepDisabledWithoutTimeout(t *testing.T) {
	a, p := testAcker(0)
	a.register(p, 1, 5, "m", 0, 0)
	if expired := a.sweep(); len(expired) != 0 {
		t.Fatalf("sweep with no timeout failed %d", len(expired))
	}
}

func TestAckerUnknownRootIgnored(t *testing.T) {
	a, p := testAcker(time.Minute)
	s := a.register(p, 1, 5, "m", 0, 0)
	if _, done := a.transition(s, 999, 5, nil); done {
		t.Fatal("op for another root completed the slot")
	}
	if _, done := a.fail(s, 999); done {
		t.Fatal("op for another root failed the slot")
	}
	if r, done := a.transition(s, 1, 5, nil); !done || !r.ok {
		t.Fatalf("occupant disturbed by foreign ops: %+v, %v", r, done)
	}
}

// A transition for a root that timed out, arriving after the spout took
// the root's slot back and reused it, must be dropped; the new occupant
// must still complete on its own edges.
func TestAckerStragglerOnReusedSlotDropped(t *testing.T) {
	a, p := testAcker(10 * time.Millisecond)
	var clk fakeClock
	clk.install(a)
	clk.ns = 1e9
	const oldRoot, oldEdge = 7, 0x55
	s := a.register(p, oldRoot, oldEdge, "old", 0, 0)
	clk.ns += int64(time.Second)
	expired := a.sweep()
	if len(expired) != 1 || expired[0].slot != s {
		t.Fatalf("sweep = %+v", expired)
	}
	a.release(p, s)
	// The pool is LIFO: the next root lands in the slot just released.
	// Give it the straggler's edge so that, were the op applied, it would
	// complete the wrong root.
	const newRoot = 8
	if got := a.register(p, newRoot, oldEdge, "new", 0, 0); got != s {
		t.Fatalf("new root in slot %d, want reused slot %d", got, s)
	}
	if _, done := a.transition(s, oldRoot, oldEdge, nil); done {
		t.Fatal("straggler completed the slot's new occupant")
	}
	if _, done := a.fail(s, oldRoot); done {
		t.Fatal("straggler failed the slot's new occupant")
	}
	r, done := a.transition(s, newRoot, oldEdge, nil)
	if !done || !r.ok || r.msgID != "new" {
		t.Fatalf("new occupant: %+v, done = %v", r, done)
	}
}

// A spout that takes more slots than its pool holds grows the slab by a
// chunk; slots already handed out stay where they are.
func TestAckerSlabGrowsByWholeChunks(t *testing.T) {
	a := newAcker(time.Minute, 3, nil) // rounds up to 4-slot chunks
	var p, other slotPool
	a.grow(&p)
	a.grow(&other)
	first := a.register(&p, 1, 1, "m", 0, 0)
	before := a.slot(first)
	seen := map[uint32]bool{first: true}
	for root := uint64(2); root <= 9; root++ {
		s := a.register(&p, root, root, "m", 0, 0)
		if seen[s] {
			t.Fatalf("slot %d handed out twice", s)
		}
		if s>>a.shift == 1 {
			t.Fatalf("slot %d is in the other spout's chunk", s)
		}
		seen[s] = true
	}
	if n := len(*a.chunks.Load()); n != 4 {
		t.Fatalf("%d chunks after 9 roots in 4-slot chunks (plus one for the other spout), want 4", n)
	}
	if a.slot(first) != before {
		t.Fatal("growth moved a live slot")
	}
	for s := range seen {
		root := a.slot(s).id
		if r, done := a.transition(s, root, root, nil); !done || !r.ok {
			t.Fatalf("root %d in slot %d did not complete", root, s)
		}
		a.release(&p, s)
	}
	if a.inFlight() != 0 {
		t.Fatalf("inFlight = %d after releasing all", a.inFlight())
	}
}

func TestAckerLatencyMeasured(t *testing.T) {
	a, p := testAcker(time.Minute)
	stepNs := int64(0)
	a.nowNs = func() int64 {
		stepNs += int64(10 * time.Millisecond)
		return stepNs
	}
	s := a.register(p, 1, 5, "m", 0, 0)   // now = +10ms
	r, done := a.transition(s, 1, 5, nil) // now = +20ms
	if !done || r.latency != 10*time.Millisecond {
		t.Fatalf("latency = %v, done = %v", r.latency, done)
	}
}

// BenchmarkAckerRoot prices one acked root through the slab the way the
// engine drives it: one goroutine (the spout) registers roots and takes
// their slots back, and the b.RunParallel goroutines (the bolts) apply
// each root's two transitions, the second usually on a different
// goroutine from the first. Roots move in batches of 32, like the data
// plane's. ns/op is per root.
func BenchmarkAckerRoot(b *testing.B) {
	const batch, pending = 32, 4096
	type root struct {
		slot       uint32
		id, e1, e2 uint64
	}
	a := newAcker(time.Minute, pending, nil)
	var pool slotPool
	a.grow(&pool)
	// Every slot in flight sits in one of these queues at most once, so
	// no send ever blocks.
	fresh := make(chan []root, pending/batch)
	half := make(chan []root, pending/batch)
	done := make(chan []root, pending/batch)
	stop := make(chan struct{})
	spoutDone := make(chan struct{})
	go func() {
		defer close(spoutDone)
		free := make([][]root, 0, pending/batch)
		for range pending / batch {
			free = append(free, make([]root, batch))
		}
		var ids uint64
		next := func() uint64 { ids += 0x9e3779b97f4a7c15; return ids | 1 }
		for {
			if len(free) == 0 {
				select {
				case rb := <-done:
					for _, r := range rb {
						a.release(&pool, r.slot)
					}
					free = append(free, rb)
				case <-stop:
					return
				}
			}
			rb := free[len(free)-1]
			free = free[:len(free)-1]
			for i := range rb {
				r := root{id: next(), e1: next(), e2: next()}
				r.slot = a.register(&pool, r.id, r.e1, nil, r.id, 0)
				rb[i] = r
			}
			select {
			case fresh <- rb:
			case <-stop:
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		produced := make([]uint64, 1)
		for {
			rb := <-fresh
			for _, r := range rb {
				produced[0] = r.e2
				a.transition(r.slot, r.id, r.e1, produced)
			}
			half <- rb
			rb = <-half
			for _, r := range rb {
				if !pb.Next() {
					return
				}
				if _, ok := a.transition(r.slot, r.id, r.e2, nil); !ok {
					panic("root did not complete on its last edge")
				}
			}
			done <- rb
		}
	})
	b.StopTimer()
	close(stop)
	<-spoutDone
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
// first chunk, and every root must still complete exactly once, on both
// data planes.
func TestSpoutEmittingPastMaxSpoutPendingCompletes(t *testing.T) {
	for _, plane := range []struct {
		name  string
		rings bool
	}{{"channels", false}, {"rings", true}} {
		t.Run(plane.name, func(t *testing.T) {
			const n = 3000
			spout := &burstSpout{countingSpout: countingSpout{limit: n}, burst: 3}
			b := NewTopologyBuilder("burst")
			b.SetSpout("src", func() Spout { return spout }, 1, "n")
			b.SetBolt("relay", func() Bolt { return &relayBolt{} }, 2, "n").ShuffleGrouping("src")
			b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("relay")
			topo, _ := b.Build()
			c := testCluster(func(cfg *ClusterConfig) {
				cfg.MaxSpoutPending = 4
				cfg.Rings = plane.rings
			})
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
			if chunks := len(*c.snapshotTops()[0].acker.chunks.Load()); chunks < 2 {
				t.Fatalf("slab has %d chunk(s): the over-range emits never grew it", chunks)
			}
		})
	}
}
