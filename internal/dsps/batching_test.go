package dsps

import (
	"sync/atomic"
	"testing"
	"time"
)

// TestBatchingBackpressureBoundsSpout pins the tuple-denominated queue
// bound under micro-batching: when the downstream queue is full (stalled
// consumer), the spout's emission stream must wedge — tiny partial batches
// must not collapse the queue's effective capacity, and batch buffering
// must not let the producer run ahead of the bound.
func TestBatchingBackpressureBoundsSpout(t *testing.T) {
	var emitted atomic.Int64
	var col SpoutCollector
	spout := &SpoutFunc{
		OpenFn: func(_ TopologyContext, c SpoutCollector) { col = c },
		NextFn: func() bool {
			// Unanchored: MaxSpoutPending does not bound this stream, so the
			// only thing that can stop it is queue backpressure.
			col.Emit(Values{int(emitted.Add(1))}, nil)
			return true
		},
	}
	b := NewTopologyBuilder("batchbp")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// A queue smaller than batchSize also caps the batch: 8-tuple batches.
	const queueSize = 8
	c := testCluster(func(cfg *ClusterConfig) { cfg.QueueSize = queueSize })
	if err := c.Submit(topo, SubmitConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	// Stall the sink's worker and let the pipeline wedge.
	if err := c.InjectFault("worker-1", Fault{Stall: true}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	before := emitted.Load()
	time.Sleep(150 * time.Millisecond)
	after := emitted.Load()
	// While stalled, the spout may at most top up the queue (queueSize
	// tuples) plus one in-flight batch buffer (queueSize tuples too);
	// sustained emission means backpressure leaked.
	if after-before > 2*queueSize {
		t.Fatalf("spout kept emitting against a full queue: %d -> %d", before, after)
	}
	// Clearing the stall releases the backpressure and the stream resumes.
	c.ClearFault("worker-1")
	deadline := time.Now().Add(3 * time.Second)
	for emitted.Load() < after+10*queueSize && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := emitted.Load(); got < after+10*queueSize {
		t.Fatalf("spout did not resume after stall cleared: emitted %d", got)
	}
}

// TestSpoutDeadlineFlush pins the spout's deadline flush: a spout that
// always has work but produces it slowly (a 2 ms emission cost per tuple)
// must not hold its first tuple until a batch fills (batchSize × 2 ms ≥
// 64 ms). The flushInterval deadline ships the partial batch after the
// next emission instead.
func TestSpoutDeadlineFlush(t *testing.T) {
	firstEmit := make(chan time.Time, 1)
	firstExec := make(chan time.Time, 1)
	var col SpoutCollector
	spout := &SpoutFunc{
		OpenFn: func(_ TopologyContext, c SpoutCollector) { col = c },
		NextFn: func() bool {
			select {
			case firstEmit <- time.Now():
			default:
			}
			col.Emit(Values{1}, nil)
			return true
		},
	}
	b := NewTopologyBuilder("deadline")
	b.SetSpout("src", func() Spout { return spout }, 1, "n").WithExecCost(2 * time.Millisecond)
	b.SetBolt("sink", func() Bolt {
		return &BoltFunc{ExecuteFn: func(*Tuple, OutputCollector) {
			select {
			case firstExec <- time.Now():
			default:
			}
		}}
	}, 1).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster(func(cfg *ClusterConfig) { cfg.Delayer = RealDelayer{} })
	if err := c.Submit(topo, SubmitConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	var emitted, executed time.Time
	select {
	case executed = <-firstExec:
		emitted = <-firstEmit
	case <-time.After(5 * time.Second):
		t.Fatal("no tuple reached the sink")
	}
	if wait := executed.Sub(emitted); wait > 20*time.Millisecond {
		t.Fatalf("first tuple executed %v after its emit, want < 20ms: the partial batch waited to fill", wait)
	}
}
