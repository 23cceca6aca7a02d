package dsps

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedSpout emits anchored integers up to a raisable limit, so tests can
// stage load around scale events.
type gatedSpout struct {
	BaseSpout
	limit atomic.Int64

	collector SpoutCollector
	next      int64
	acked     atomic.Int64
	failed    atomic.Int64
}

func (s *gatedSpout) Open(_ TopologyContext, c SpoutCollector) { s.collector = c }

func (s *gatedSpout) NextTuple() bool {
	if s.next >= s.limit.Load() {
		return false
	}
	s.collector.Emit(Values{int(s.next)}, s.next)
	s.next++
	return true
}

func (s *gatedSpout) Ack(any)  { s.acked.Add(1) }
func (s *gatedSpout) Fail(any) { s.failed.Add(1) }

// scaleTopology is src(1) -> work(par) -> sink(1): work is the scalable
// stage, sink tallies which work task relayed each tuple.
func scaleTopology(spout *gatedSpout, tally *taskTally, par int) (*Topology, error) {
	b := NewTopologyBuilder("elastic")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("work", func() Bolt { return &relayBolt{} }, par, "n").
		ShuffleGrouping("src")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{tally: tally} }, 1).
		ShuffleGrouping("work")
	return b.Build()
}

// spoutConservation asserts emitted == acked+failed for every spout task
// of a drained snapshot.
func spoutConservation(t *testing.T, snap *Snapshot) {
	t.Helper()
	for _, ts := range snap.Tasks {
		if !ts.IsSpout {
			continue
		}
		if ts.Emitted != ts.Acked+ts.Failed {
			t.Fatalf("spout task %d: emitted %d != acked %d + failed %d",
				ts.TaskID, ts.Emitted, ts.Acked, ts.Failed)
		}
	}
}

func TestScaleUpReceivesTraffic(t *testing.T) {
	spout := &gatedSpout{}
	spout.limit.Store(300)
	b := NewTopologyBuilder("elastic-up")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("work", func() Bolt { return &relayBolt{} }, 2, "n").
		ShuffleGrouping("src")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).
		ShuffleGrouping("work")
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
		t.Fatal("did not drain before scale up")
	}
	if err := c.ScaleUp("elastic-up", "work", 2); err != nil {
		t.Fatal(err)
	}
	if got := c.ComponentParallelism("elastic-up", "work"); got != 4 {
		t.Fatalf("parallelism after scale up = %d, want 4", got)
	}
	spout.limit.Store(900)
	if !c.Drain(5 * time.Second) {
		t.Fatal("did not drain after scale up")
	}
	snap := c.Snapshot()
	spoutConservation(t, snap)
	work := snap.ComponentTasks("work")
	if len(work) != 4 {
		t.Fatalf("snapshot shows %d live work tasks, want 4", len(work))
	}
	for _, ts := range work[2:] {
		if ts.Executed == 0 {
			t.Fatalf("spawned task %d (index %d) executed nothing", ts.TaskID, ts.TaskIndex)
		}
	}
	cs, ok := snap.ComponentByName("elastic-up", "work")
	if !ok || cs.Parallelism != 4 {
		t.Fatalf("component aggregate missing or wrong parallelism: %+v", cs)
	}
	if cs.Executed != 900 {
		t.Fatalf("component executed %d tuples, want 900", cs.Executed)
	}
}

func TestScaleDownUnderLoadConservesTuples(t *testing.T) {
	spout := &gatedSpout{}
	spout.limit.Store(1 << 40) // effectively unbounded
	tally := newTaskTally()
	topo, err := scaleTopology(spout, tally, 3)
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
	time.Sleep(100 * time.Millisecond) // in-flight acks everywhere
	if err := c.ScaleDown("elastic", "work", 2, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.ComponentParallelism("elastic", "work"); got != 1 {
		t.Fatalf("parallelism after scale down = %d, want 1", got)
	}
	time.Sleep(50 * time.Millisecond) // keep load on the survivor
	c.PauseSpouts()
	if !c.Drain(5 * time.Second) {
		t.Fatal("did not drain after scale down")
	}
	snap := c.Snapshot()
	spoutConservation(t, snap)
	retired := 0
	for _, ts := range snap.Tasks {
		if ts.Retired {
			retired++
			if ts.QueueLen != 0 {
				t.Fatalf("retired task %d still shows queue length %d", ts.TaskID, ts.QueueLen)
			}
		}
	}
	if retired != 2 {
		t.Fatalf("snapshot carries %d retired tasks, want 2", retired)
	}
	cs, ok := snap.ComponentByName("elastic", "work")
	if !ok {
		t.Fatal("missing component aggregate for work")
	}
	if cs.Parallelism != 1 || cs.Retired != 2 {
		t.Fatalf("component aggregate parallelism=%d retired=%d, want 1/2", cs.Parallelism, cs.Retired)
	}
	// The retired executors' work must still be counted in the aggregate.
	var taskSum int64
	for _, ts := range snap.Tasks {
		if ts.Component == "work" {
			taskSum += ts.Executed
		}
	}
	if cs.Executed != taskSum {
		t.Fatalf("component aggregate executed %d != per-task sum %d", cs.Executed, taskSum)
	}
	if len(snap.Scale) != 1 || snap.Scale[0].Downs != 2 {
		t.Fatalf("scale stats = %+v, want one entry with Downs=2", snap.Scale)
	}
}

func TestScaleDownForcedWhileStalled(t *testing.T) {
	spout := &gatedSpout{}
	spout.limit.Store(1 << 40)
	tally := newTaskTally()
	topo, err := scaleTopology(spout, tally, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster(func(cfg *ClusterConfig) {
		cfg.QueueSize = 32
		cfg.MaxSpoutPending = 128
		cfg.AckTimeout = 300 * time.Millisecond
	})
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	time.Sleep(50 * time.Millisecond)
	// Stall every worker: the victims cannot drain cooperatively, so the
	// scale-down must force-stop them without violating conservation.
	for _, w := range c.WorkerIDs() {
		if err := c.InjectFault(w, Fault{Stall: true}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.ScaleDown("elastic", "work", 1, 150*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	for _, w := range c.WorkerIDs() {
		c.ClearFault(w)
	}
	c.PauseSpouts()
	if !c.Drain(5 * time.Second) {
		t.Fatal("did not drain after forced scale down")
	}
	snap := c.Snapshot()
	spoutConservation(t, snap)
	if got := c.ComponentParallelism("elastic", "work"); got != 1 {
		t.Fatalf("parallelism after forced scale down = %d, want 1", got)
	}
}

func TestScaleGuards(t *testing.T) {
	spout := &gatedSpout{}
	tally := newTaskTally()
	topo, err := scaleTopology(spout, tally, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.ScaleUp("nope", "work", 1); err == nil {
		t.Fatal("scale up of unknown topology succeeded")
	}
	if err := c.ScaleUp("elastic", "src", 1); err == nil {
		t.Fatal("scale up of a spout succeeded")
	}
	if err := c.ScaleUp("elastic", "work", 0); err == nil {
		t.Fatal("scale up by 0 succeeded")
	}
	if err := c.ScaleDown("elastic", "work", 2, time.Second); !errors.Is(err, ErrScaleFloor) {
		t.Fatalf("scale down to 0 returned %v, want ErrScaleFloor", err)
	}
	if err := c.ScaleDown("elastic", "missing", 1, time.Second); err == nil {
		t.Fatal("scale down of unknown component succeeded")
	}
}

// TestScaleChurnConserves hammers the splice path: repeated up/down cycles
// while anchored load flows, then a final conservation audit.
func TestScaleChurnConserves(t *testing.T) {
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
	if !c.Drain(5 * time.Second) {
		t.Fatal("did not drain after scale churn")
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

// ComponentByName returns the aggregate stats of one component, or a zero
// value and false.
func (s *Snapshot) ComponentByName(topology, component string) (ComponentStats, bool) {
	for _, cs := range s.Components {
		if cs.Topology == topology && cs.Component == component {
			return cs, true
		}
	}
	return ComponentStats{}, false
}
