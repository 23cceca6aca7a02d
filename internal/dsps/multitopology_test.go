package dsps

import (
	"testing"
	"time"
)

func simpleTopo(t *testing.T, name string, n int, spout *countingSpout, cost time.Duration) *Topology {
	t.Helper()
	b := NewTopologyBuilder(name)
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 2).
		ShuffleGrouping("src").
		WithExecCost(cost)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestTwoTopologiesRunIndependently(t *testing.T) {
	spA := &countingSpout{limit: 300}
	spB := &countingSpout{limit: 500}
	c := testCluster()
	if err := c.Submit(simpleTopo(t, "alpha", 300, spA, 0), SubmitConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(simpleTopo(t, "beta", 500, spB, 0), SubmitConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if got := c.Topologies(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("Topologies = %v", got)
	}
	if !c.Drain(5 * time.Second) {
		t.Fatal("did not drain")
	}
	if spA.acked.Load() != 300 || spB.acked.Load() != 500 {
		t.Fatalf("acks = %d/%d", spA.acked.Load(), spB.acked.Load())
	}
	snap := c.Snapshot()
	// Worker ids are cluster-global: alpha has worker-0/1, beta 2/3.
	if got := c.TopologyWorkerIDs("alpha"); len(got) != 2 || got[0] != "worker-0" {
		t.Fatalf("alpha workers = %v", got)
	}
	if got := c.TopologyWorkerIDs("beta"); len(got) != 2 || got[0] != "worker-2" {
		t.Fatalf("beta workers = %v", got)
	}
	if got := c.TopologyWorkerIDs("ghost"); got != nil {
		t.Fatalf("ghost workers = %v", got)
	}
	// Snapshot tasks carry the topology name, ids unique.
	seen := map[int]bool{}
	perTopo := map[string]int64{}
	for _, ts := range snap.Tasks {
		if seen[ts.TaskID] {
			t.Fatalf("duplicate task id %d", ts.TaskID)
		}
		seen[ts.TaskID] = true
		if ts.Component == "sink" {
			perTopo[ts.Topology] += ts.Executed
		}
	}
	if perTopo["alpha"] != 300 || perTopo["beta"] != 500 {
		t.Fatalf("per-topology executed = %v", perTopo)
	}
}

func TestDuplicateTopologyNameRejected(t *testing.T) {
	c := testCluster()
	defer c.Shutdown()
	if err := c.Submit(simpleTopo(t, "dup", 1, &countingSpout{limit: 1}, 0), SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(simpleTopo(t, "dup", 1, &countingSpout{limit: 1}, 0), SubmitConfig{}); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestShutdownTopologyLeavesOthersRunning(t *testing.T) {
	spA := &countingSpout{limit: 1 << 30}
	spB := &countingSpout{limit: 1 << 30}
	c := testCluster()
	if err := c.Submit(simpleTopo(t, "stays", 0, spA, 0), SubmitConfig{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(simpleTopo(t, "goes", 0, spB, 0), SubmitConfig{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	time.Sleep(20 * time.Millisecond)
	if err := c.ShutdownTopology("goes"); err != nil {
		t.Fatal(err)
	}
	if err := c.ShutdownTopology("goes"); err == nil {
		t.Fatal("double shutdown accepted")
	}
	if got := c.Topologies(); len(got) != 1 || got[0] != "stays" {
		t.Fatalf("Topologies = %v", got)
	}
	// The survivor keeps making progress.
	before := spA.acked.Load()
	deadline := time.Now().Add(2 * time.Second)
	for spA.acked.Load() == before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if spA.acked.Load() == before {
		t.Fatal("surviving topology stalled")
	}
	// And the stopped one's workers are no longer valid fault targets.
	if err := c.InjectFault("worker-1", Fault{Slowdown: 2}); err == nil {
		t.Fatal("fault on stopped topology's worker accepted")
	}
}

func TestCrossTopologyInterferenceVisible(t *testing.T) {
	// Two topologies share one single-core node; when the second starts
	// hammering the node, the first topology's executors see inflated
	// service costs — the co-located-worker interference the paper's
	// model is built to capture, across topology boundaries.
	spA := &countingSpout{limit: 1 << 30}
	c := NewCluster(ClusterConfig{
		Nodes:        1,
		CoresPerNode: 1,
		Delayer:      RealDelayer{},
		Seed:         7,
		AckTimeout:   30 * time.Second,
		QueueSize:    32, MaxSpoutPending: 64,
	})
	if err := c.Submit(simpleTopo(t, "fg", 0, spA, 3*time.Millisecond), SubmitConfig{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	time.Sleep(300 * time.Millisecond)
	alone := c.Snapshot()

	spB := &countingSpout{limit: 1 << 30}
	if err := c.Submit(simpleTopo(t, "bg", 0, spB, 3*time.Millisecond), SubmitConfig{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	crowded := c.Snapshot()

	avgLatency := func(s *Snapshot, topo string) time.Duration {
		var lat time.Duration
		var n int64
		for _, ts := range s.Tasks {
			if ts.Topology == topo && ts.Component == "sink" {
				lat += ts.ExecLatency
				n += ts.Executed
			}
		}
		if n == 0 {
			return 0
		}
		return lat / time.Duration(n)
	}
	before := avgLatency(alone, "fg")
	// Interval average after the second topology arrived.
	var latDelta time.Duration
	var execDelta int64
	for _, ts := range crowded.Tasks {
		if ts.Topology != "fg" || ts.Component != "sink" {
			continue
		}
		prev, _ := alone.TaskByID(ts.TaskID)
		latDelta += ts.ExecLatency - prev.ExecLatency
		execDelta += ts.Executed - prev.Executed
	}
	if execDelta == 0 {
		t.Fatal("foreground made no progress while crowded")
	}
	after := latDelta / time.Duration(execDelta)
	if after <= before {
		t.Fatalf("cross-topology interference invisible: alone %v vs crowded %v", before, after)
	}
}

// TopologyWorkerIDs returns one topology's worker ids, or nil if it is
// not running.
func (c *Cluster) TopologyWorkerIDs(name string) []string {
	for _, rt := range c.snapshotTops() {
		if rt.topo.Name != name {
			continue
		}
		out := make([]string, len(rt.workers))
		for i, w := range rt.workers {
			out[i] = w.id
		}
		return out
	}
	return nil
}
