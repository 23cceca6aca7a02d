package dsps

import (
	"sync/atomic"
	"testing"
	"time"
)

// tickCounterBolt counts data tuples and ticks separately.
type tickCounterBolt struct {
	BaseBolt
	data  atomic.Int64
	ticks atomic.Int64
}

func (b *tickCounterBolt) Prepare(TopologyContext, OutputCollector) {}

func (b *tickCounterBolt) Execute(t *Tuple) {
	if t.IsTick() {
		b.ticks.Add(1)
		return
	}
	b.data.Add(1)
}

func TestTickTuplesDelivered(t *testing.T) {
	bolt := &tickCounterBolt{}
	b := NewTopologyBuilder("ticks")
	b.SetSpout("src", func() Spout { return &countingSpout{limit: 10} }, 1, "n")
	b.SetBolt("sink", func() Bolt { return bolt }, 1).
		ShuffleGrouping("src").
		WithTickInterval(20 * time.Millisecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	deadline := time.Now().Add(3 * time.Second)
	for bolt.ticks.Load() < 3 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := bolt.ticks.Load(); got < 3 {
		t.Fatalf("received %d ticks in 3s at 20ms interval", got)
	}
	if got := bolt.data.Load(); got != 10 {
		t.Fatalf("data tuples = %d, want 10", got)
	}
	// Ticks must not pollute the executed/acked statistics.
	snap := c.Snapshot()
	if got := snap.ComponentTasks("sink")[0].Executed; got != 10 {
		t.Fatalf("executed counter = %d, want 10 (ticks excluded)", got)
	}
	if got := snap.TotalAcked(); got != 10 {
		t.Fatalf("acked = %d, want 10", got)
	}
}

func TestTickMarkersAndHelpers(t *testing.T) {
	tick := NewTickTuple()
	if !tick.IsTick() {
		t.Fatal("NewTickTuple not a tick")
	}
	if NewTestTuple([]string{"a"}, 1).IsTick() {
		t.Fatal("regular tuple reported as tick")
	}
	if tick.SourceComponent != TickComponent {
		t.Fatal("tick component name wrong")
	}
}

func TestNegativeTickIntervalClampsToDisabled(t *testing.T) {
	bolt := &tickCounterBolt{}
	b := NewTopologyBuilder("noticks")
	b.SetSpout("src", func() Spout { return &countingSpout{limit: 5} }, 1, "n")
	b.SetBolt("sink", func() Bolt { return bolt }, 1).
		ShuffleGrouping("src").
		WithTickInterval(-time.Second)
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
	time.Sleep(30 * time.Millisecond)
	if got := bolt.ticks.Load(); got != 0 {
		t.Fatalf("disabled ticker delivered %d ticks", got)
	}
}

// TestTicksReachBoltWithFullQueue pins that a bolt whose input queue an
// unpaced spout keeps full still hears its ticks: they come due on the
// bolt's own loop, not through its queue, where a full queue would drop
// them. Each data tuple takes the bolt about a millisecond, so a round of
// input batches (16 tuples) is well inside the 50 ms interval, and at
// least 80% of the window's ticks must arrive.
func TestTicksReachBoltWithFullQueue(t *testing.T) {
	const (
		interval = 50 * time.Millisecond
		window   = time.Second
	)
	var col SpoutCollector
	spout := &SpoutFunc{
		OpenFn: func(_ TopologyContext, c SpoutCollector) { col = c },
		NextFn: func() bool {
			col.Emit(Values{1}, nil)
			return true
		},
	}
	var ticks, data atomic.Int64
	b := NewTopologyBuilder("busyticks")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("sink", func() Bolt {
		return &BoltFunc{ExecuteFn: func(t *Tuple, _ OutputCollector) {
			if t.IsTick() {
				ticks.Add(1)
				return
			}
			data.Add(1)
			time.Sleep(200 * time.Microsecond)
		}}
	}, 1).ShuffleGrouping("src").WithTickInterval(interval)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster(func(cfg *ClusterConfig) { cfg.QueueSize = 16 })
	if err := c.Submit(topo, SubmitConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	time.Sleep(2 * interval)
	startTicks, startData := ticks.Load(), data.Load()
	time.Sleep(window)
	got, executed := ticks.Load()-startTicks, data.Load()-startData
	snap := c.Snapshot()
	if bp := snap.ComponentTasks("src")[0].BackpressureWaits; bp == 0 || executed == 0 {
		t.Fatalf("spout blocked %d times and the bolt executed %d tuples: the queue was never full", bp, executed)
	}
	want := int64(window / interval * 8 / 10)
	if got < want {
		t.Fatalf("a bolt with a full queue heard %d ticks in %v at a %v interval, want ≥ %d", got, window, interval, want)
	}
}
