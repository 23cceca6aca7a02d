// Scale-event latency benchmarks: how long a live parallelism change takes
// on a topology under continuous load. ns/op is the latency of the whole
// actuation (spawn + splice for up; splice-out + drain + settle + retire
// for down), not a per-tuple cost. Run with
// `go test -run '^$' -bench Scale -benchtime 2s ./internal/dsps/`.
package dsps_test

import (
	"sync/atomic"
	"testing"
	"time"

	"predstream/internal/dsps"
)

// benchStreamSpout emits unanchored tuples until told to stop, keeping the
// relay stage busy so scale events always race live traffic.
type benchStreamSpout struct {
	dsps.BaseSpout
	stop      *atomic.Bool
	collector dsps.SpoutCollector
}

func (s *benchStreamSpout) Open(_ dsps.TopologyContext, c dsps.SpoutCollector) { s.collector = c }

func (s *benchStreamSpout) NextTuple() bool {
	if s.stop.Load() {
		return false
	}
	s.collector.Emit(benchValues, nil)
	return true
}

// startScaleBenchTopology brings up src(1) -> relay(2, shuffle) -> sink(1)
// with the spout free-running, and returns the cluster plus the stop flag.
func startScaleBenchTopology(b *testing.B) (*dsps.Cluster, *atomic.Bool) {
	b.Helper()
	var stop atomic.Bool
	var seen atomic.Int64
	tb := dsps.NewTopologyBuilder("bench-scale")
	tb.SetSpout("src", func() dsps.Spout { return &benchStreamSpout{stop: &stop} }, 1, "v")
	tb.SetBolt("relay", func() dsps.Bolt { return &benchRelay{} }, 2, "v").ShuffleGrouping("src")
	tb.SetBolt("sink", func() dsps.Bolt { return &benchSink{seen: &seen} }, 1).ShuffleGrouping("relay")
	topo, err := tb.Build()
	if err != nil {
		b.Fatal(err)
	}
	c := benchCluster(b)
	if err := c.Submit(topo, dsps.SubmitConfig{Workers: 4}); err != nil {
		b.Fatal(err)
	}
	// Let the stream reach steady state before the first scale event.
	waitFor(b, &seen, 1024)
	return c, &stop
}

// BenchmarkScaleCycleLive measures a full elastic actuation round trip
// under load: ScaleUp(+1) immediately followed by ScaleDown(-1) with a
// cooperative drain. ns/op is the plan-to-fully-drained latency of one
// up+down pair; parallelism stays bounded across iterations.
func BenchmarkScaleCycleLive(b *testing.B) {
	c, stop := startScaleBenchTopology(b)
	defer c.Shutdown()
	defer stop.Store(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ScaleUp("bench-scale", "relay", 1); err != nil {
			b.Fatal(err)
		}
		if err := c.ScaleDown("bench-scale", "relay", 1, 2*time.Second); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(b.Elapsed().Seconds()*1000/float64(2*b.N), "ms/event")
}

// BenchmarkScaleUpLive isolates the expansion half: executor spawn plus
// splicing into the live fan-out tables. The paired ScaleDown runs with
// the timer stopped so ns/op is the pure scale-up latency.
func BenchmarkScaleUpLive(b *testing.B) {
	c, stop := startScaleBenchTopology(b)
	defer c.Shutdown()
	defer stop.Store(true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.ScaleUp("bench-scale", "relay", 1); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := c.ScaleDown("bench-scale", "relay", 1, 2*time.Second); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}
