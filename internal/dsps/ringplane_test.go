package dsps

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// laneSpout emits anchored int64 payloads through the typed lane
// (EmitInt64, no Values slice) and counts completions through the
// unboxed AckerU64 path.
type laneSpout struct {
	BaseSpout
	limit int

	collector SpoutCollector
	next      int
	ackedU64  atomic.Int64
	failedU64 atomic.Int64
}

func (s *laneSpout) Open(_ TopologyContext, c SpoutCollector) { s.collector = c }

func (s *laneSpout) NextTuple() bool {
	if s.next >= s.limit {
		return false
	}
	s.collector.EmitInt64(int64(s.next), uint64(s.next)+1)
	s.next++
	return true
}

func (s *laneSpout) AckU64(uint64)  { s.ackedU64.Add(1) }
func (s *laneSpout) FailU64(uint64) { s.failedU64.Add(1) }

// ringCfg flips a test cluster onto the SPSC ring data plane.
func ringCfg(cfg *ClusterConfig) { cfg.Rings = true }

// runSeededPlane is runSeeded with arbitrary extra cluster knobs, so the
// determinism fingerprint can be compared across data planes.
func runSeededPlane(t *testing.T, seed int64, opts ...func(*ClusterConfig)) map[string]string {
	t.Helper()
	spout := &wordSpout{words: []string{"a", "b", "c", "d", "e"}, limit: 500}
	b := NewTopologyBuilder("det")
	b.SetSpout("src", func() Spout { return spout }, 1, "word")
	b.SetBolt("pass", func() Bolt { return &relayBolt{} }, 2, "word").ShuffleGrouping("src")
	b.SetBolt("count", func() Bolt { return &wordCounter{} }, 3).FieldsGrouping("pass", "word")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	all := append([]func(*ClusterConfig){func(cfg *ClusterConfig) { cfg.Seed = seed }}, opts...)
	c := testCluster(all...)
	if err := c.Submit(topo, SubmitConfig{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(10 * time.Second) {
		t.Fatal("did not drain")
	}
	snap := c.Snapshot()
	out := map[string]string{}
	for _, comp := range []string{"src", "pass", "count"} {
		for _, ts := range snap.ComponentTasks(comp) {
			key := fmt.Sprintf("%s/%d", comp, ts.TaskIndex)
			out[key] = fmt.Sprintf("exec=%d emit=%d acked=%d failed=%d",
				ts.Executed, ts.Emitted, ts.Acked, ts.Failed)
		}
	}
	return out
}

// TestRingPlaneDeterminismMatchesChannelPlane pins the reproducibility
// contract across data planes: with the same seed, the ring plane must
// land every tuple on the same task as the channel plane (routing derives
// from the seed, never from which plane carried the batch), and two
// rings-on runs must be byte-identical to each other.
func TestRingPlaneDeterminismMatchesChannelPlane(t *testing.T) {
	channel := runSeededPlane(t, 42)
	ringsA := runSeededPlane(t, 42, ringCfg)
	ringsB := runSeededPlane(t, 42, ringCfg)
	if len(channel) != len(ringsA) {
		t.Fatalf("task sets differ: channel %d vs rings %d", len(channel), len(ringsA))
	}
	for k, v := range channel {
		if ringsA[k] != v {
			t.Errorf("task %s diverged across planes: channel %q vs rings %q", k, v, ringsA[k])
		}
		if ringsB[k] != ringsA[k] {
			t.Errorf("task %s diverged across rings-on runs: %q vs %q", k, ringsA[k], ringsB[k])
		}
	}
	if channel["src/0"] != "exec=500 emit=500 acked=500 failed=0" {
		t.Fatalf("unexpected spout tally: %q", channel["src/0"])
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
	c := testCluster(ringCfg)
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
		cfg.Rings = true
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
		cfg.Rings = true
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

// TestRingPlaneTypedLanesEndToEnd drives lane-emitted tuples (no Values
// slice) through a fields grouping into a counting sink on the ring
// plane, checking payloads survive the SoA batches and hash like their
// boxed equivalents would.
func TestRingPlaneTypedLanesEndToEnd(t *testing.T) {
	const n = 300
	spout := &laneSpout{limit: n}
	var mu sync.Mutex
	sums := map[int]int64{}
	b := NewTopologyBuilder("lanes")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("sink", func() Bolt {
		return &BoltFunc{ExecuteFn: func(tp *Tuple, _ OutputCollector) {
			v, ok := tp.Int64()
			if !ok {
				t.Error("lane payload missing")
				return
			}
			mu.Lock()
			sums[int(v)%3]++
			mu.Unlock()
		}}
	}, 3).FieldsGrouping("src", "n")
	topo, _ := b.Build()
	c := testCluster(ringCfg)
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(10 * time.Second) {
		t.Fatal("did not drain")
	}
	if got := spout.ackedU64.Load(); got != n {
		t.Fatalf("AckU64 completions %d, want %d", got, n)
	}
	mu.Lock()
	defer mu.Unlock()
	total := int64(0)
	for _, s := range sums {
		total += s
	}
	if total != n {
		t.Fatalf("sink saw %d lane tuples, want %d", total, n)
	}
}
