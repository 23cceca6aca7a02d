package dsps

import (
	"testing"
	"time"
)

func TestRebalanceChangesWorkerCount(t *testing.T) {
	spout := &countingSpout{limit: 1 << 30}
	b := NewTopologyBuilder("reb")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 4).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if got := len(c.TopologyWorkerIDs("reb")); got != 2 {
		t.Fatalf("initial workers = %d", got)
	}
	time.Sleep(20 * time.Millisecond)
	if err := c.Rebalance("reb", SubmitConfig{Workers: 4, Strategy: PlaceBlocked}, time.Second); err != nil {
		t.Fatal(err)
	}
	if got := len(c.TopologyWorkerIDs("reb")); got != 4 {
		t.Fatalf("post-rebalance workers = %d", got)
	}
	// The topology keeps processing after rebalance.
	before := spout.acked.Load()
	deadline := time.Now().Add(2 * time.Second)
	for spout.acked.Load() == before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if spout.acked.Load() == before {
		t.Fatal("no progress after rebalance")
	}
	if err := c.Rebalance("ghost", SubmitConfig{}, 0); err == nil {
		t.Fatal("rebalancing unknown topology accepted")
	}
}

func TestRebalancePreservesDynamicGroupingHandle(t *testing.T) {
	spout := &countingSpout{limit: 1 << 30}
	b := NewTopologyBuilder("rebdyn")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	dg := b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 2).DynamicGrouping("src")
	topo, _ := b.Build()
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := dg.SetRatios([]float64{1, 0}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if err := c.Rebalance("rebdyn", SubmitConfig{Workers: 3}, time.Second); err != nil {
		t.Fatal(err)
	}
	// The same handle still steers the resubmitted topology.
	if err := dg.SetRatios([]float64{0, 1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	snap := c.Snapshot()
	tasks := snap.ComponentTasks("sink")
	if len(tasks) != 2 {
		t.Fatalf("sink tasks = %d", len(tasks))
	}
	// After the post-rebalance ratio flip, only task index 1 receives new
	// tuples.
	if tasks[1].Executed == 0 {
		t.Fatal("steered task received nothing after rebalance")
	}
}

func TestStallFaultStopsProcessingUntilCleared(t *testing.T) {
	spout := &countingSpout{limit: 1 << 30}
	b := NewTopologyBuilder("stall")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("src")
	topo, _ := b.Build()
	c := testCluster(func(cfg *ClusterConfig) {
		cfg.QueueSize = 16
		cfg.MaxSpoutPending = 32
		cfg.AckTimeout = time.Minute
	})
	if err := c.Submit(topo, SubmitConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	time.Sleep(30 * time.Millisecond)
	// The sink bolt lives on worker-1 (spout on worker-0).
	if err := c.InjectFault("worker-1", Fault{Stall: true}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	stalled := c.Snapshot().ComponentTasks("sink")[0].Executed
	time.Sleep(80 * time.Millisecond)
	after := c.Snapshot().ComponentTasks("sink")[0].Executed
	// At most one in-flight tuple completes after the stall lands.
	if after > stalled+1 {
		t.Fatalf("stalled worker still processing: %d -> %d", stalled, after)
	}
	c.ClearFault("worker-1")
	deadline := time.Now().Add(2 * time.Second)
	for c.Snapshot().ComponentTasks("sink")[0].Executed <= after && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.Snapshot().ComponentTasks("sink")[0].Executed; got <= after {
		t.Fatalf("no recovery after clearing stall: %d", got)
	}
}

func TestStallFaultAllowsShutdown(t *testing.T) {
	spout := &countingSpout{limit: 1 << 30}
	b := NewTopologyBuilder("stallstop")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("src")
	topo, _ := b.Build()
	c := testCluster(func(cfg *ClusterConfig) { cfg.QueueSize = 8; cfg.MaxSpoutPending = 16 })
	if err := c.Submit(topo, SubmitConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.InjectFault("worker-1", Fault{Stall: true}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	done := make(chan struct{})
	go func() {
		c.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown hung on stalled worker")
	}
}

func TestBlockedSendReroutesOnDynamicEdge(t *testing.T) {
	// A producer blocked on a stalled task's full queue must re-direct the
	// waiting tuple once the dynamic ratios steer away from that task —
	// instead of wedging forever.
	spout := &countingSpout{limit: 1 << 30}
	b := NewTopologyBuilder("reroute")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	dg := b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 2).DynamicGrouping("src")
	topo, _ := b.Build()
	c := testCluster(func(cfg *ClusterConfig) {
		// This test pins per-tuple wedge/re-route rates, so a one-tuple
		// queue caps batches at one tuple: with larger batches a blocked
		// send legitimately leaks one whole batch per reroute interval,
		// which would swamp the wedge assertion below.
		cfg.QueueSize = 1
		cfg.MaxSpoutPending = 64
		cfg.AckTimeout = time.Minute
	})
	if err := c.Submit(topo, SubmitConfig{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	// Stall the worker hosting sink task 0 (task id 1 → worker-1).
	if err := c.InjectFault("worker-1", Fault{Stall: true}); err != nil {
		t.Fatal(err)
	}
	// Wait for the spout to wedge on the stalled task's full queue.
	time.Sleep(150 * time.Millisecond)
	wedged := c.Snapshot().TotalAcked()
	time.Sleep(150 * time.Millisecond)
	if got := c.Snapshot().TotalAcked(); got > wedged+16 {
		t.Fatalf("expected the spout to wedge before bypass; acked %d -> %d", wedged, got)
	}
	// Steer everything to task 1: the blocked emission must re-route.
	if err := dg.SetRatios([]float64{0, 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if c.Snapshot().TotalAcked() > wedged+100 {
			return // recovered
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("producer stayed wedged after bypass: acked %d", c.Snapshot().TotalAcked())
}

func TestBlockedSendNeverReroutesFieldsGrouping(t *testing.T) {
	// Fields-grouping correctness depends on stable key→task assignment:
	// a blocked send on a fields edge must NOT re-route, even under
	// stall.
	spout := &wordSpout{words: []string{"a", "b", "c", "d"}, limit: 1 << 30}
	b := NewTopologyBuilder("noreroute")
	b.SetSpout("src", func() Spout { return spout }, 1, "word")
	b.SetBolt("count", func() Bolt { return &wordCounter{} }, 2).
		FieldsGrouping("src", "word")
	topo, _ := b.Build()
	c := testCluster(func(cfg *ClusterConfig) {
		cfg.QueueSize = 8
		cfg.MaxSpoutPending = 32
		cfg.AckTimeout = time.Minute
	})
	if err := c.Submit(topo, SubmitConfig{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.InjectFault("worker-1", Fault{Stall: true}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	// The stalled count task executed at most one tuple mid-flight, and —
	// crucially — the healthy task received no keys that hash to the
	// stalled one (no re-route happened): every executed tuple on task 1
	// belongs there by hash. We verify indirectly: total executed stays
	// bounded by what task 1's own keys allow before the spout wedges.
	snap := c.Snapshot()
	tasks := snap.ComponentTasks("count")
	stalledExec := tasks[0].Executed
	if stalledExec > 1 {
		t.Fatalf("stalled task executed %d tuples", stalledExec)
	}
	// The system wedges rather than re-routing: acked must be far below
	// unbounded progress.
	if acked := snap.TotalAcked(); acked > 64 {
		t.Fatalf("fields-grouped pipeline kept flowing (%d acked) — did it re-route?", acked)
	}
}

func TestFaultSlowdownZeroMeansNone(t *testing.T) {
	b := NewTopologyBuilder("fz")
	b.SetSpout("src", func() Spout { return &countingSpout{limit: 1} }, 1, "n")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("src")
	topo, _ := b.Build()
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.InjectFault("worker-0", Fault{DropProb: 0.5}); err != nil {
		t.Fatalf("Slowdown=0 fault rejected: %v", err)
	}
	if err := c.InjectFault("worker-0", Fault{Slowdown: 0.5}); err == nil {
		t.Fatal("fractional slowdown accepted")
	}
}
