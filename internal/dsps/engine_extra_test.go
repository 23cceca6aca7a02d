package dsps

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// ackerRandomTreeProperty drives the acker with a randomly shaped tuple
// tree and checks the invariant: a root completes exactly when every edge
// has been both produced and consumed, regardless of the transition order.
// Shared by the quick.Check regression test and FuzzAckerTrees.
func ackerRandomTreeProperty(seed int64, fanRaw, depthRaw uint8) bool {
	fan := int(fanRaw%3) + 1   // children per node: 1..3
	depth := int(depthRaw % 4) // tree depth: 0..3
	rng := rand.New(rand.NewSource(seed))
	a, p := testAcker(time.Minute)

	// Build the tree: each node is an edge id; children produced when
	// the parent is consumed.
	type node struct {
		id       uint64
		children []*node
	}
	var build func(level int) *node
	build = func(level int) *node {
		n := &node{id: rng.Uint64() | 1}
		if level < depth {
			for c := 0; c < fan; c++ {
				n.children = append(n.children, build(level+1))
			}
		}
		return n
	}
	root := build(0)
	const rootID = 42
	slot := a.register(p, rootID, root.id, "msg")

	// Build every bolt's op (consumed edge XOR produced edges) and apply
	// them in a random order — XOR acking must be order-independent.
	var ops []ackOp
	var walk func(n *node)
	walk = func(n *node) {
		var produced []uint64
		for _, c := range n.children {
			produced = append(produced, c.id)
			walk(c)
		}
		ops = append(ops, xorOp(rootID, slot, n.id, produced...))
	}
	walk(root)
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })

	for i, op := range ops {
		a.apply(p, op)
		if p.nDone != 0 && i != len(ops)-1 {
			// Completed before all ops were applied: only a bug (or an
			// astronomically improbable XOR collision).
			return false
		}
	}
	done := deliver(a, p)
	if len(done) != 1 || !done[0].ok || done[0].slot != slot {
		return false
	}
	return a.inFlight() == 0
}

// TestPropertyAckerRandomTrees is the quick.Check regression form of the
// property; FuzzAckerTrees explores the same space under go test -fuzz.
func TestPropertyAckerRandomTrees(t *testing.T) {
	if err := quick.Check(ackerRandomTreeProperty, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// blockingBolt holds each tuple until released, to build up queue depth.
type blockingBolt struct {
	BaseBolt
	gate chan struct{}
}

func (b *blockingBolt) Prepare(TopologyContext, OutputCollector) {}
func (b *blockingBolt) Execute(*Tuple)                           { <-b.gate }

func TestBackpressureBoundsInFlight(t *testing.T) {
	// With a blocked consumer, emission must stall at queue size + max
	// spout pending rather than grow without bound.
	gate := make(chan struct{})
	bolt := &blockingBolt{gate: gate}
	spout := &countingSpout{limit: 1 << 30}
	b := NewTopologyBuilder("bp")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("sink", func() Bolt { return bolt }, 1).ShuffleGrouping("src")
	topo, _ := b.Build()
	c := testCluster(func(cfg *ClusterConfig) {
		cfg.QueueSize = 16
		cfg.MaxSpoutPending = 32
		cfg.AckTimeout = time.Minute
	})
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(gate) // unblock the bolt so shutdown can proceed
		c.Shutdown()
	}()
	time.Sleep(100 * time.Millisecond)
	snap := c.Snapshot()
	emitted := snap.ComponentTasks("src")[0].Emitted
	// Bound: pending cap (32). The spout stops emitting at the cap.
	if emitted > 32 {
		t.Fatalf("emitted %d with MaxSpoutPending=32", emitted)
	}
	if emitted < 16 {
		t.Fatalf("emitted only %d; backpressure kicked in too early", emitted)
	}
	if got := c.InFlight(); got > 32 {
		t.Fatalf("in flight %d exceeds pending cap", got)
	}
}

func TestShutdownWhileBlocked(t *testing.T) {
	// Shutdown must terminate promptly even when executors are blocked on
	// full downstream queues.
	gate := make(chan struct{}) // never closed: bolt stays blocked
	bolt := &blockingBolt{gate: gate}
	b := NewTopologyBuilder("stuck")
	b.SetSpout("src", func() Spout { return &countingSpout{limit: 1 << 30} }, 1, "n")
	b.SetBolt("sink", func() Bolt { return bolt }, 1).ShuffleGrouping("src")
	topo, _ := b.Build()
	c := testCluster(func(cfg *ClusterConfig) {
		cfg.QueueSize = 4
		cfg.MaxSpoutPending = 8
	})
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		// The blocked Execute itself never returns; Shutdown waits for
		// executor goroutines, so release the gate when the context is
		// down to simulate a bolt honoring cancellation.
		time.Sleep(20 * time.Millisecond)
		close(gate)
	}()
	go func() {
		c.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown hung")
	}
}

func TestMultipleSpoutsInterleave(t *testing.T) {
	sp1 := &countingSpout{limit: 100}
	sp2 := &countingSpout{limit: 200}
	b := NewTopologyBuilder("multi")
	b.SetSpout("a", func() Spout { return sp1 }, 1, "n")
	b.SetSpout("b", func() Spout { return sp2 }, 1, "n")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 2).
		ShuffleGrouping("a").
		ShuffleGrouping("b")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(5 * time.Second) {
		t.Fatal("did not drain")
	}
	snap := c.Snapshot()
	var sinkTotal int64
	for _, ts := range snap.ComponentTasks("sink") {
		sinkTotal += ts.Executed
	}
	if sinkTotal != 300 {
		t.Fatalf("sink executed %d, want 300", sinkTotal)
	}
	if sp1.acked.Load() != 100 || sp2.acked.Load() != 200 {
		t.Fatalf("acks = %d/%d", sp1.acked.Load(), sp2.acked.Load())
	}
}

func TestSpoutExecCostThrottlesEmission(t *testing.T) {
	// A spout with a 5ms emission cost cannot emit faster than ~200/s.
	spout := &countingSpout{limit: 1 << 30}
	b := NewTopologyBuilder("spoutcost")
	b.SetSpout("src", func() Spout { return spout }, 1, "n").
		WithExecCost(5 * time.Millisecond)
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("src")
	topo, _ := b.Build()
	c := testCluster(func(cfg *ClusterConfig) { cfg.Delayer = RealDelayer{} })
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	time.Sleep(500 * time.Millisecond)
	emitted := c.Snapshot().ComponentTasks("src")[0].Emitted
	// 500ms at ≥5ms per emission → at most ~100 (+slack for granularity).
	if emitted > 120 {
		t.Fatalf("costed spout emitted %d in 500ms", emitted)
	}
	if emitted < 10 {
		t.Fatalf("costed spout barely emitted: %d", emitted)
	}
}

func TestDoubleSubscriptionDuplicatesDelivery(t *testing.T) {
	// Subscribing to the same source twice is two independent edges: each
	// tuple is delivered once per edge (Storm semantics).
	const n = 100
	spout := &countingSpout{limit: n}
	b := NewTopologyBuilder("double")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 2).
		ShuffleGrouping("src").
		ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(5 * time.Second) {
		t.Fatal("did not drain")
	}
	snap := c.Snapshot()
	var total int64
	for _, ts := range snap.ComponentTasks("sink") {
		total += ts.Executed
	}
	if total != 2*n {
		t.Fatalf("double subscription delivered %d, want %d", total, 2*n)
	}
	// Reliability still completes each root exactly once.
	if got := spout.acked.Load(); got != n {
		t.Fatalf("acked %d roots, want %d", got, n)
	}
}

func TestBlockedPlacementConcentratesStages(t *testing.T) {
	b := NewTopologyBuilder("blocked")
	b.SetSpout("src", func() Spout { return &countingSpout{limit: 1} }, 2, "n")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 6).ShuffleGrouping("src")
	topo, _ := b.Build()
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{Workers: 4, Strategy: PlaceBlocked}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	snap := c.Snapshot()
	// 8 tasks over 4 workers in blocks of 2: tasks 0-1 on worker-0,
	// 2-3 on worker-1, etc.
	for _, ts := range snap.Tasks {
		wantWorker := ts.TaskID / 2
		if ts.WorkerID != c.WorkerIDs()[wantWorker] {
			t.Fatalf("task %d on %s, want worker index %d", ts.TaskID, ts.WorkerID, wantWorker)
		}
	}
	// Both spout tasks co-locate on worker-0 under blocked placement.
	spoutWorkers := map[string]bool{}
	for _, ts := range snap.ComponentTasks("src") {
		spoutWorkers[ts.WorkerID] = true
	}
	if len(spoutWorkers) != 1 {
		t.Fatalf("blocked placement spread spouts over %d workers", len(spoutWorkers))
	}
}

func TestUnknownPlacementStrategyRejected(t *testing.T) {
	b := NewTopologyBuilder("badplace")
	b.SetSpout("src", func() Spout { return &countingSpout{limit: 1} }, 1, "n")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("src")
	topo, _ := b.Build()
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{Strategy: "spiral"}); err == nil {
		c.Shutdown()
		t.Fatal("unknown strategy accepted")
	}
}

func TestSpoutParallelismSplitsSources(t *testing.T) {
	// Each spout task is an independent instance emitting its own stream.
	var mu sync.Mutex
	instances := 0
	b := NewTopologyBuilder("pspout")
	b.SetSpout("src", func() Spout {
		mu.Lock()
		instances++
		mu.Unlock()
		return &countingSpout{limit: 50}
	}, 3, "n")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("src")
	topo, _ := b.Build()
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(5 * time.Second) {
		t.Fatal("did not drain")
	}
	mu.Lock()
	got := instances
	mu.Unlock()
	if got != 3 {
		t.Fatalf("factory called %d times, want 3", got)
	}
	if acked := c.Snapshot().TotalAcked(); acked != 150 {
		t.Fatalf("acked %d, want 150", acked)
	}
}

// WithExecCost sets the simulated per-tuple service cost of the spout's
// emission path (used by the interference model). Negative values clamp
// to zero (no simulated cost).
func (d *SpoutDeclarer) WithExecCost(cost time.Duration) *SpoutDeclarer {
	if cost < 0 {
		cost = 0
	}
	d.decl.execCost = cost
	return d
}
