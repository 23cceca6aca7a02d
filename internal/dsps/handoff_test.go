package dsps

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// Tests of the hand-offs between executors: acks riding ack rings into
// the spout, buffers going back through the ring they came by, and the
// wake sources of each task's one waiter.

// TestFullAckRingDrains fans every root out 64× through rings far smaller
// than the ops in flight: ack rings of 4 ops (MaxSpoutPending 4) and
// queues of 8 tuples. A bolt that finds its ack ring full must wait for
// the spout to drain it — also while the spout is itself blocked on that
// bolt's full queue — and the run must still drain with every tuple
// accounted for and no root failed.
func TestFullAckRingDrains(t *testing.T) {
	const n = 320 // whole bursts
	spout := &burstSpout{countingSpout: countingSpout{limit: n}, burst: 16}
	b := NewTopologyBuilder("fullack")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("fan", func() Bolt { return &fanBolt{fan: 64} }, 2, "n").ShuffleGrouping("src")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 2).ShuffleGrouping("fan")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster(func(cfg *ClusterConfig) {
		cfg.MaxSpoutPending = 4
		cfg.QueueSize = 8
		// A wedge must show as a drain failure, not be papered over by
		// the timeout sweep failing the stuck roots.
		cfg.AckTimeout = time.Minute
	})
	if err := c.Submit(topo, SubmitConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(30 * time.Second) {
		t.Fatalf("wedged: acked %d of %d, %d in flight", spout.acked.Load(), n, c.InFlight())
	}
	if acked, failed := spout.acked.Load(), spout.failed.Load(); acked != n || failed != 0 {
		t.Fatalf("acked %d failed %d, want %d and 0", acked, failed, n)
	}
	snap := c.Snapshot()
	spoutConservation(t, snap)
	fan, _ := snap.ComponentByName("fullack", "fan")
	sink, _ := snap.ComponentByName("fullack", "sink")
	if fan.Executed != n || sink.Executed != 64*n {
		t.Fatalf("fan executed %d, sink %d; want %d and %d", fan.Executed, sink.Executed, n, 64*n)
	}
}

// parkedTick is the tick interval of parkedTopology's ticking bolts: long
// enough that a tick cannot stand in for a lost wake-up inside the 100 ms
// bound of TestWakeSourcesEndParkedTasks.
const parkedTick = 400 * time.Millisecond

// parkedTopology submits src(1) -> work(2) and src(1) -> tick(2), whose
// tasks tick every parkedTick, with a spout that emits nothing, and returns
// once every bolt has parked on its waiter.
func parkedTopology(t *testing.T) (*Cluster, *runningTopology) {
	t.Helper()
	spout := &gatedSpout{}
	b := NewTopologyBuilder("parked")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("work", func() Bolt { return &relayBolt{} }, 2, "n").ShuffleGrouping("src")
	b.SetBolt("tick", func() Bolt { return &tickCounterBolt{} }, 2).ShuffleGrouping("src").WithTickInterval(parkedTick)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	rt := c.snapshotTops()[0]
	deadline := time.Now().Add(5 * time.Second)
	for _, tk := range rt.tasks {
		for tk.bolt != nil && tk.counters.ringParks.Load() == 0 {
			if time.Now().After(deadline) {
				c.Shutdown()
				t.Fatalf("bolt task %d never parked", tk.id)
			}
			time.Sleep(time.Millisecond)
		}
	}
	time.Sleep(10 * time.Millisecond) // let the spout settle into its idle wait
	return c, rt
}

// TestWakeSourcesEndParkedTasks pins that each wake source other than
// data reaches a task parked on its waiter: shutdown ends the parked
// spout and bolts, ScaleDown's stop ends the parked victim, and a splice
// makes the parked survivors and the spout rebuild their routes — all
// within 100 ms. A plain bolt's park has no timeout and a ticking bolt's
// lasts until its next tick, so a lost wake-up shows as a hang or a
// ≥ 100 ms delay. A retired ticking bolt hears no more ticks.
func TestWakeSourcesEndParkedTasks(t *testing.T) {
	const bound = 100 * time.Millisecond
	t.Run("shutdown", func(t *testing.T) {
		c, _ := parkedTopology(t)
		start := time.Now()
		c.Shutdown() // returns once every executor has exited
		if took := time.Since(start); took > bound {
			t.Fatalf("Shutdown of parked executors took %v, want < %v", took, bound)
		}
	})
	t.Run("scale-down", func(t *testing.T) {
		c, rt := parkedTopology(t)
		defer c.Shutdown()
		victim := rt.liveTasksOf("work")[1]
		start := time.Now()
		if err := c.ScaleDown("parked", "work", 1, time.Second); err != nil {
			t.Fatal(err)
		}
		select {
		case <-victim.done:
		default:
			t.Fatal("ScaleDown returned before its victim exited")
		}
		if took := time.Since(start); took > bound {
			t.Fatalf("ScaleDown of a parked bolt took %v, want < %v", took, bound)
		}
		ticking := rt.liveTasksOf("tick")
		survivor, victim := ticking[0].bolt.(*tickCounterBolt), ticking[1]
		start = time.Now()
		if err := c.ScaleDown("parked", "tick", 1, time.Second); err != nil {
			t.Fatal(err)
		}
		select {
		case <-victim.done:
		default:
			t.Fatal("ScaleDown returned before its ticking victim exited")
		}
		if took := time.Since(start); took > bound {
			t.Fatalf("ScaleDown of a parked ticking bolt took %v, want < %v", took, bound)
		}
		retired := victim.bolt.(*tickCounterBolt)
		victimTicks, survivorTicks := retired.ticks.Load(), survivor.ticks.Load()
		time.Sleep(parkedTick + 100*time.Millisecond)
		if got := retired.ticks.Load(); got != victimTicks {
			t.Fatalf("retired bolt heard %d ticks after it retired", got-victimTicks)
		}
		if survivor.ticks.Load() == survivorTicks {
			t.Fatalf("surviving bolt heard no tick in %v at a %v interval", parkedTick+100*time.Millisecond, parkedTick)
		}
	})
	t.Run("splice", func(t *testing.T) {
		c, rt := parkedTopology(t)
		defer c.Shutdown()
		tasks := append([]*task(nil), rt.tasks...)
		epoch := rt.splice(func() {})
		deadline := time.Now().Add(bound)
		for _, tk := range tasks {
			for tk.routeGen.Load() != epoch {
				if time.Now().After(deadline) {
					t.Fatalf("task %d (%s) did not rebuild its routes within %v of a splice", tk.id, tk.component, bound)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	})
}

// TestRetiredBoltAckRingPruned pins that a scaled-down bolt's ack ring
// leaves its spout's list: the retirement closes it, and the spout drops
// it once drained, at its next idle wait.
func TestRetiredBoltAckRingPruned(t *testing.T) {
	spout := &gatedSpout{}
	spout.limit.Store(2000)
	tally := newTaskTally()
	topo, err := scaleTopology(spout, tally, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(10 * time.Second) {
		t.Fatal("did not drain before the scale-down")
	}
	rt := c.snapshotTops()[0]
	var sp *task
	for _, tk := range rt.tasks {
		if tk.spout != nil {
			sp = tk
		}
	}
	before := len(*sp.ackRings.Load())
	if before != 4 { // three work tasks and the sink
		t.Fatalf("spout has %d ack rings before the scale-down, want 4", before)
	}
	if err := c.ScaleDown("elastic", "work", 1, time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		rings := *sp.ackRings.Load()
		closed := 0
		for _, r := range rings {
			if r.Closed() {
				closed++
			}
		}
		if len(rings) == before-1 && closed == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("spout holds %d ack rings (%d closed) after the scale-down, want %d open", len(rings), closed, before-1)
		}
		time.Sleep(time.Millisecond)
	}
	spout.limit.Store(3000)
	if !c.Drain(10 * time.Second) {
		t.Fatal("did not drain after the scale-down")
	}
	if acked, failed := spout.acked.Load(), spout.failed.Load(); acked != 3000 || failed != 0 {
		t.Fatalf("acked %d failed %d, want 3000 and 0", acked, failed)
	}
}

// onDemandSpout emits one shared Values with a static message id, so
// that emitting a root allocates nothing but its tuple from the arena, up
// to a limit the test raises.
type onDemandSpout struct {
	BaseSpout
	limit, acked atomic.Int64

	collector SpoutCollector
	next      int64
}

var onDemandValues = Values{1}

func (s *onDemandSpout) Open(_ TopologyContext, c SpoutCollector) { s.collector = c }

func (s *onDemandSpout) NextTuple() bool {
	if s.next >= s.limit.Load() {
		return false
	}
	s.collector.Emit(onDemandValues, 1)
	s.next++
	return true
}

func (s *onDemandSpout) Ack(any) { s.acked.Add(1) }

// TestBatchRoundTripAllocatesNothing pins the steady state of a batch's
// round trip — spout emit, ring hand-off, bolt execute, the buffer's way
// back, the ack ring, the spout's idle wait and Ack: once the rings'
// buffers circulate, a run of one batch allocates nothing. Tuples come
// from the arenas, one chunk per 256, which the per-run average rounds
// away.
func TestBatchRoundTripAllocatesNothing(t *testing.T) {
	spout := &onDemandSpout{}
	b := NewTopologyBuilder("allocs")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("sink", func() Bolt { return &BoltFunc{} }, 1).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	round := func() {
		want := spout.limit.Add(batchSize)
		for spout.acked.Load() < want {
			runtime.Gosched()
		}
	}
	for range 64 {
		round()
	}
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Fatalf("a batch round trip allocates %v times, want 0", allocs)
	}
}
