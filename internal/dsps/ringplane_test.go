package dsps

import (
	"sync"
	"testing"
	"time"
)

// channelPlaneFingerprint is runSeeded(42)'s per-task fingerprint as the
// engine's former channel data plane (one shared input channel per bolt)
// produced it, captured before that plane was deleted.
var channelPlaneFingerprint = map[string]string{
	"count/0": "exec=0 emit=0 acked=0 failed=0",
	"count/1": "exec=500 emit=0 acked=0 failed=0",
	"count/2": "exec=0 emit=0 acked=0 failed=0",
	"pass/0":  "exec=250 emit=250 acked=0 failed=0",
	"pass/1":  "exec=250 emit=250 acked=0 failed=0",
	"src/0":   "exec=500 emit=500 acked=500 failed=0",
}

// TestRingPlaneDeterminismMatchesChannelPlane pins the reproducibility
// contract across the deletion of the channel plane: with the same seed,
// the ring plane lands every tuple on the same task the channel plane did
// (routing derives from the seed, never from how a batch travels), byte
// for byte.
func TestRingPlaneDeterminismMatchesChannelPlane(t *testing.T) {
	got := runSeeded(t, 42)
	if len(got) != len(channelPlaneFingerprint) {
		t.Fatalf("task sets differ: got %d tasks, channel plane had %d", len(got), len(channelPlaneFingerprint))
	}
	for k, want := range channelPlaneFingerprint {
		if got[k] != want {
			t.Errorf("task %s: got %q, channel plane had %q", k, got[k], want)
		}
	}
}

// TestRingPlaneMultiStageAcking runs the three-stage anchored chain on the
// ring plane and checks every root completes.
func TestRingPlaneMultiStageAcking(t *testing.T) {
	const n = 400
	spout := &countingSpout{limit: n}
	b := NewTopologyBuilder("chain")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("relay1", func() Bolt { return &relayBolt{} }, 2, "n").ShuffleGrouping("src")
	b.SetBolt("relay2", func() Bolt { return &relayBolt{} }, 2, "n").ShuffleGrouping("relay1")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("relay2")
	topo, _ := b.Build()
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(10 * time.Second) {
		t.Fatal("did not drain")
	}
	if got := spout.acked.Load(); got != n {
		t.Fatalf("acked %d, want %d", got, n)
	}
	if got := c.InFlight(); got != 0 {
		t.Fatalf("in flight = %d", got)
	}
	snap := c.Snapshot()
	for _, comp := range []string{"relay1", "relay2", "sink"} {
		total := int64(0)
		for _, ts := range snap.ComponentTasks(comp) {
			total += ts.Executed
		}
		if total != n {
			t.Fatalf("%s executed %d, want %d", comp, total, n)
		}
	}
}

// TestRingPlaneSmallRingBackpressure sizes the queue (and therefore the
// rings) very small against a fast spout: the tuple-denominated
// reservation bound must keep every push infallible and still complete
// every root.
func TestRingPlaneSmallRingBackpressure(t *testing.T) {
	const n = 3000
	spout := &countingSpout{limit: n}
	b := NewTopologyBuilder("bp")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("relay", func() Bolt { return &relayBolt{} }, 1, "n").ShuffleGrouping("src")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("relay")
	topo, _ := b.Build()
	c := testCluster(func(cfg *ClusterConfig) {
		cfg.QueueSize = 8
		cfg.MaxSpoutPending = 32
	})
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(20 * time.Second) {
		t.Fatal("did not drain under tight backpressure")
	}
	if got := spout.acked.Load(); got != n {
		t.Fatalf("acked %d, want %d", got, n)
	}
	if got := c.InFlight(); got != 0 {
		t.Fatalf("in flight = %d", got)
	}
}

// TestRingPlaneScaleChurnConserves repeats the elastic churn cycle on the
// ring plane: live attach of new consumer rings on scale-up, retirement
// drain of orphaned rings on scale-down, with spout conservation audited
// at the end.
func TestRingPlaneScaleChurnConserves(t *testing.T) {
	spout := &gatedSpout{}
	spout.limit.Store(1 << 40)
	tally := newTaskTally()
	topo, err := scaleTopology(spout, tally, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster(func(cfg *ClusterConfig) {
		cfg.QueueSize = 64
		cfg.MaxSpoutPending = 256
	})
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if err := c.ScaleUp("elastic", "work", 2); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(10 * time.Millisecond)
			if err := c.ScaleDown("elastic", "work", 2, time.Second); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	wg.Wait()
	c.PauseSpouts()
	if !c.Drain(10 * time.Second) {
		t.Fatal("did not drain after ring-plane scale churn")
	}
	snap := c.Snapshot()
	spoutConservation(t, snap)
	if got := c.ComponentParallelism("elastic", "work"); got != 2 {
		t.Fatalf("parallelism after churn = %d, want 2", got)
	}
	if len(snap.Scale) != 1 || snap.Scale[0].Ups != 12 || snap.Scale[0].Downs != 12 {
		t.Fatalf("scale stats after churn = %+v, want Ups=12 Downs=12", snap.Scale)
	}
}
