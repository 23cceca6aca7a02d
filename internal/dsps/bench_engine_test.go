// Engine data-plane benchmarks: tuples/s and allocs/op through live
// topologies on the simulated cluster, run with
// `go test -run '^$' -bench Engine ./internal/dsps/`; `make bench-smoke`
// runs each for a single iteration in CI.
//
// The benchmarks use only the public API so the same file measures any
// engine revision: a spout emits b.N tuples with a constant payload and a
// static msgID (no per-tuple boxing on the app side), and the timer stops
// when the last tuple is acked (anchored) or counted by the sink
// (unanchored) — no Drain settle window inside the timed region.
package dsps_test

import (
	"sync/atomic"
	"testing"
	"time"

	"predstream/internal/dsps"
)

// benchMsgID is a preallocated msgID so anchored emission measures engine
// allocations, not interface boxing in the benchmark spout.
var benchMsgID any = "bench"

// benchValues is a constant payload; the engine copies tuple headers, not
// payloads, so sharing it across emissions is safe and allocation-free.
var benchValues = dsps.Values{int(7)}

// benchSpout emits exactly limit tuples and counts completions.
type benchSpout struct {
	dsps.BaseSpout
	limit    int
	anchored bool

	collector dsps.SpoutCollector
	next      int
	done      *atomic.Int64 // acked + failed roots
}

func (s *benchSpout) Open(_ dsps.TopologyContext, c dsps.SpoutCollector) { s.collector = c }

func (s *benchSpout) NextTuple() bool {
	if s.next >= s.limit {
		return false
	}
	if s.anchored {
		s.collector.Emit(benchValues, benchMsgID)
	} else {
		s.collector.Emit(benchValues, nil)
	}
	s.next++
	return true
}

func (s *benchSpout) Ack(any)  { s.done.Add(1) }
func (s *benchSpout) Fail(any) { s.done.Add(1) }

// benchRelay forwards every tuple downstream.
type benchRelay struct {
	dsps.BaseBolt
	collector dsps.OutputCollector
}

func (b *benchRelay) Prepare(_ dsps.TopologyContext, c dsps.OutputCollector) { b.collector = c }
func (b *benchRelay) Execute(*dsps.Tuple)                                    { b.collector.Emit(benchValues) }

// benchSink counts arrivals into a shared atomic.
type benchSink struct {
	dsps.BaseBolt
	seen *atomic.Int64
}

func (b *benchSink) Prepare(dsps.TopologyContext, dsps.OutputCollector) {}
func (b *benchSink) Execute(*dsps.Tuple)                                { b.seen.Add(1) }

func benchCluster(b *testing.B) *dsps.Cluster {
	b.Helper()
	return dsps.NewCluster(dsps.ClusterConfig{
		Nodes:           2,
		CoresPerNode:    4,
		QueueSize:       1024,
		MaxSpoutPending: 4096,
		AckTimeout:      time.Minute,
		Delayer:         dsps.NopDelayer{},
		Seed:            1,
	})
}

// waitFor sleep-polls until the counter reaches want. Polling must not
// busy-spin: the benchmark goroutine shares the scheduler with the
// executors it is timing, and a hot loop on a small GOMAXPROCS steals a
// double-digit share of the run it measures. 50µs polls bound the
// detection delay well below benchmark noise.
func waitFor(b *testing.B, ctr *atomic.Int64, want int64) {
	b.Helper()
	deadline := time.Now().Add(5 * time.Minute)
	for ctr.Load() < want {
		if time.Now().After(deadline) {
			b.Fatalf("stalled: %d/%d after 5m", ctr.Load(), want)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// runEngineBench submits the topology, times b.N tuples through it, and
// reports tuples/s.
func runEngineBench(b *testing.B, c *dsps.Cluster, topo *dsps.Topology, workers int, ctr *atomic.Int64, want int64) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	if err := c.Submit(topo, dsps.SubmitConfig{Workers: workers}); err != nil {
		b.Fatal(err)
	}
	waitFor(b, ctr, want)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tuples/s")
	c.Shutdown()
}

// benchLinearAcked is the headline row: spout(1) -> relay(2) -> sink(2),
// every root anchored and acked through the XOR tree.
func benchLinearAcked(b *testing.B, workers int) {
	var done atomic.Int64
	var seen atomic.Int64
	spout := &benchSpout{limit: b.N, anchored: true, done: &done}
	tb := dsps.NewTopologyBuilder("bench-linear")
	tb.SetSpout("src", func() dsps.Spout { return spout }, 1, "v")
	tb.SetBolt("relay", func() dsps.Bolt { return &benchRelay{} }, 2, "v").ShuffleGrouping("src")
	tb.SetBolt("sink", func() dsps.Bolt { return &benchSink{seen: &seen} }, 2).ShuffleGrouping("relay")
	topo, err := tb.Build()
	if err != nil {
		b.Fatal(err)
	}
	runEngineBench(b, benchCluster(b), topo, workers, &done, int64(b.N))
}

func BenchmarkEngineLinearAckedW1(b *testing.B) { benchLinearAcked(b, 1) }
func BenchmarkEngineLinearAckedW2(b *testing.B) { benchLinearAcked(b, 2) }
func BenchmarkEngineLinearAckedW4(b *testing.B) { benchLinearAcked(b, 4) }

// BenchmarkEngineLinearAckedObservedW4 is the headline row with the
// observability layer on: tuple tracing sampled at 1% (the documented
// operator default) on a cluster that also carries an event sink. The
// delta against BenchmarkEngineLinearAckedW4 is the observability
// overhead, budgeted at ≤2%.
func BenchmarkEngineLinearAckedObservedW4(b *testing.B) {
	var done atomic.Int64
	var seen atomic.Int64
	spout := &benchSpout{limit: b.N, anchored: true, done: &done}
	tb := dsps.NewTopologyBuilder("bench-linear-obs")
	tb.SetSpout("src", func() dsps.Spout { return spout }, 1, "v")
	tb.SetBolt("relay", func() dsps.Bolt { return &benchRelay{} }, 2, "v").ShuffleGrouping("src")
	tb.SetBolt("sink", func() dsps.Bolt { return &benchSink{seen: &seen} }, 2).ShuffleGrouping("relay")
	topo, err := tb.Build()
	if err != nil {
		b.Fatal(err)
	}
	c := dsps.NewCluster(dsps.ClusterConfig{
		Nodes:           2,
		CoresPerNode:    4,
		QueueSize:       1024,
		MaxSpoutPending: 4096,
		AckTimeout:      time.Minute,
		Delayer:         dsps.NopDelayer{},
		Seed:            1,
		TraceSampleRate: 0.01,
		Events:          nopEvents{},
	})
	runEngineBench(b, c, topo, 4, &done, int64(b.N))
}

// nopEvents is a do-nothing EventSink so the benchmark exercises the
// emit paths without measuring a sink implementation.
type nopEvents struct{}

func (nopEvents) Event(int, string, ...string) {}

// BenchmarkEngineLinearUnanchored is the same shape with reliability
// tracking off: the acked-vs-unanchored delta is the acker's cost.
func BenchmarkEngineLinearUnanchored(b *testing.B) {
	var seen atomic.Int64
	spout := &benchSpout{limit: b.N, anchored: false, done: new(atomic.Int64)}
	tb := dsps.NewTopologyBuilder("bench-linear-un")
	tb.SetSpout("src", func() dsps.Spout { return spout }, 1, "v")
	tb.SetBolt("relay", func() dsps.Bolt { return &benchRelay{} }, 2, "v").ShuffleGrouping("src")
	tb.SetBolt("sink", func() dsps.Bolt { return &benchSink{seen: &seen} }, 2).ShuffleGrouping("relay")
	topo, err := tb.Build()
	if err != nil {
		b.Fatal(err)
	}
	runEngineBench(b, benchCluster(b), topo, 2, &seen, int64(b.N))
}

// BenchmarkEngineFanOutShuffle spreads the stream over a wide shuffle
// stage: spout(1) -> work(4, shuffle) -> sink(1).
func BenchmarkEngineFanOutShuffle(b *testing.B) {
	var done atomic.Int64
	var seen atomic.Int64
	spout := &benchSpout{limit: b.N, anchored: true, done: &done}
	tb := dsps.NewTopologyBuilder("bench-fanout")
	tb.SetSpout("src", func() dsps.Spout { return spout }, 1, "v")
	tb.SetBolt("work", func() dsps.Bolt { return &benchRelay{} }, 4, "v").ShuffleGrouping("src")
	tb.SetBolt("sink", func() dsps.Bolt { return &benchSink{seen: &seen} }, 1).ShuffleGrouping("work")
	topo, err := tb.Build()
	if err != nil {
		b.Fatal(err)
	}
	runEngineBench(b, benchCluster(b), topo, 2, &done, int64(b.N))
}

// BenchmarkEngineDynamicGrouping routes through the paper's
// dynamic-grouping edge with a skewed live split.
func BenchmarkEngineDynamicGrouping(b *testing.B) {
	var done atomic.Int64
	var seen atomic.Int64
	spout := &benchSpout{limit: b.N, anchored: true, done: &done}
	tb := dsps.NewTopologyBuilder("bench-dynamic")
	tb.SetSpout("src", func() dsps.Spout { return spout }, 1, "v")
	dg := tb.SetBolt("work", func() dsps.Bolt { return &benchRelay{} }, 4, "v").DynamicGrouping("src")
	tb.SetBolt("sink", func() dsps.Bolt { return &benchSink{seen: &seen} }, 1).ShuffleGrouping("work")
	if err := dg.SetRatios([]float64{0.4, 0.3, 0.2, 0.1}); err != nil {
		b.Fatal(err)
	}
	topo, err := tb.Build()
	if err != nil {
		b.Fatal(err)
	}
	runEngineBench(b, benchCluster(b), topo, 2, &done, int64(b.N))
}

// BenchmarkEngineEmitSteadyState is the allocation row: the shortest
// possible unanchored pipeline (spout -> sink), so allocs/op approximates
// the per-tuple emit+execute cost with no acker involvement.
func BenchmarkEngineEmitSteadyState(b *testing.B) {
	var seen atomic.Int64
	spout := &benchSpout{limit: b.N, anchored: false, done: new(atomic.Int64)}
	tb := dsps.NewTopologyBuilder("bench-emit")
	tb.SetSpout("src", func() dsps.Spout { return spout }, 1, "v")
	tb.SetBolt("sink", func() dsps.Bolt { return &benchSink{seen: &seen} }, 1).ShuffleGrouping("src")
	topo, err := tb.Build()
	if err != nil {
		b.Fatal(err)
	}
	runEngineBench(b, benchCluster(b), topo, 1, &seen, int64(b.N))
}
