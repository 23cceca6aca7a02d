package telemetry

import (
	"math"
	"testing"
	"time"

	"predstream/internal/dsps"
)

// snapAt builds a synthetic snapshot with two workers on one node and one
// on another.
func snapAt(at time.Time, execW0, execW1 int64, execLatW0 time.Duration) *dsps.Snapshot {
	return &dsps.Snapshot{
		At: at,
		Tasks: []dsps.TaskStats{
			{TaskID: 0, Component: "b", WorkerID: "w0", NodeID: "n0", Executed: execW0, ExecLatency: execLatW0},
			{TaskID: 1, Component: "b", WorkerID: "w1", NodeID: "n0", Executed: execW1},
			{TaskID: 2, Component: "b", WorkerID: "w2", NodeID: "n1", Executed: 5},
		},
		Workers: []dsps.WorkerStats{
			{WorkerID: "w0", NodeID: "n0", Executed: execW0, ExecLatency: execLatW0,
				Tasks: []dsps.TaskStats{{TaskID: 0, Executed: execW0, ExecLatency: execLatW0}}},
			{WorkerID: "w1", NodeID: "n0", Executed: execW1,
				Tasks: []dsps.TaskStats{{TaskID: 1, Executed: execW1}}},
			{WorkerID: "w2", NodeID: "n1", Executed: 5,
				Tasks: []dsps.TaskStats{{TaskID: 2, Executed: 5}}},
		},
		Nodes: []dsps.NodeStats{
			{NodeID: "n0", Cores: 4, Busy: 2, Workers: []string{"w0", "w1"}},
			{NodeID: "n1", Cores: 4, Busy: 0, Workers: []string{"w2"}},
		},
	}
}

func TestSamplerFirstSampleIsBaseline(t *testing.T) {
	s := NewSampler(0)
	s.Sample(snapAt(time.Unix(0, 0), 0, 0, 0))
	if len(s.Workers()) != 0 {
		t.Fatal("baseline sample produced windows")
	}
}

func TestSamplerDerivesRatesAndLatency(t *testing.T) {
	s := NewSampler(0)
	t0 := time.Unix(100, 0)
	s.Sample(snapAt(t0, 0, 0, 0))
	// After 2s: w0 executed 200 tuples totalling 400ms of latency.
	s.Sample(snapAt(t0.Add(2*time.Second), 200, 100, 400*time.Millisecond))
	w0 := s.Series("w0")
	if len(w0) != 1 {
		t.Fatalf("w0 windows = %d", len(w0))
	}
	win := w0[0]
	if math.Abs(win.ExecRate-100) > 1e-9 {
		t.Fatalf("ExecRate = %v want 100", win.ExecRate)
	}
	if math.Abs(win.AvgExecMs-2) > 1e-9 {
		t.Fatalf("AvgExecMs = %v want 2", win.AvgExecMs)
	}
	// Machine-level features: w1 is co-located on n0 with exec rate 50.
	if win.CoWorkers != 1 {
		t.Fatalf("CoWorkers = %v", win.CoWorkers)
	}
	if math.Abs(win.CoExecRate-50) > 1e-9 {
		t.Fatalf("CoExecRate = %v want 50", win.CoExecRate)
	}
	if win.NodeBusy != 2 {
		t.Fatalf("NodeBusy = %v", win.NodeBusy)
	}
	// w2 is alone on its node.
	w2 := s.Series("w2")[0]
	if w2.CoWorkers != 0 || w2.CoExecRate != 0 {
		t.Fatalf("w2 co-features = %+v", w2)
	}
}

func TestSamplerMaxLenTrims(t *testing.T) {
	s := NewSampler(2)
	t0 := time.Unix(0, 0)
	for i := 0; i < 5; i++ {
		s.Sample(snapAt(t0.Add(time.Duration(i)*time.Second), int64(i*10), 0, 0))
	}
	if got := s.Len("w0"); got != 2 {
		t.Fatalf("retained %d windows, want 2", got)
	}
	// The retained windows are the most recent ones.
	wins := s.Series("w0")
	if !wins[1].End.After(wins[0].End) {
		t.Fatal("windows out of order")
	}
}

func TestSamplerZeroOrNegativeDtIgnored(t *testing.T) {
	s := NewSampler(0)
	t0 := time.Unix(0, 0)
	s.Sample(snapAt(t0, 0, 0, 0))
	s.Sample(snapAt(t0, 10, 0, 0)) // same timestamp
	if len(s.Workers()) != 0 {
		t.Fatal("zero-dt sample produced windows")
	}
}

func TestSamplerReset(t *testing.T) {
	s := NewSampler(0)
	t0 := time.Unix(0, 0)
	s.Sample(snapAt(t0, 0, 0, 0))
	s.Sample(snapAt(t0.Add(time.Second), 10, 0, 0))
	if len(s.Workers()) == 0 {
		t.Fatal("no windows before reset")
	}
	s.Reset()
	if len(s.Workers()) != 0 {
		t.Fatal("windows survived reset")
	}
}

func TestFeatureVectorShapes(t *testing.T) {
	w := WindowStats{ExecRate: 1, EmitRate: 2, AvgExecMs: 3, AvgQueueMs: 4, QueueLen: 5,
		CoWorkers: 6, CoExecRate: 7, CoAvgExecMs: 8, NodeBusy: 9}
	base := Features(w, FeatureConfig{})
	if len(base) != 5 || base[2] != 3 {
		t.Fatalf("base features = %v", base)
	}
	full := Features(w, FeatureConfig{Interference: true})
	if len(full) != 9 || full[5] != 6 || full[8] != 9 {
		t.Fatalf("full features = %v", full)
	}
}

func TestTargetSelection(t *testing.T) {
	w := WindowStats{ExecRate: 120, AvgExecMs: 7}
	if got := Target(w, TargetProcTime); got != 7 {
		t.Fatalf("proc-time target = %v", got)
	}
	if got := Target(w, TargetThroughput); got != 120 {
		t.Fatalf("throughput target = %v", got)
	}
	if TargetProcTime.String() != "proc-time-ms" || TargetThroughput.String() != "throughput-tps" {
		t.Fatal("TargetMetric strings wrong")
	}
	if TargetMetric(99).String() == "" {
		t.Fatal("unknown metric string empty")
	}
}

func TestToSeries(t *testing.T) {
	wins := []WindowStats{
		{ExecRate: 10, AvgExecMs: 1},
		{ExecRate: 20, AvgExecMs: 2},
	}
	s := ToSeries(wins, TargetProcTime, FeatureConfig{Interference: true})
	if s.Len() != 2 {
		t.Fatalf("series len = %d", s.Len())
	}
	if s.Points[1].Target != 2 {
		t.Fatalf("target = %v", s.Points[1].Target)
	}
	if s.FeatureDim() != 9 {
		t.Fatalf("feature dim = %d", s.FeatureDim())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSamplerEndToEndWithEngine(t *testing.T) {
	// Run a real topology and verify the sampler derives plausible
	// windows from live snapshots.
	spoutN := 2000
	b := dsps.NewTopologyBuilder("telemetry")
	emitted := 0
	var col dsps.SpoutCollector
	b.SetSpout("src", func() dsps.Spout {
		return &dsps.SpoutFunc{
			OpenFn: func(_ dsps.TopologyContext, c dsps.SpoutCollector) { col = c },
			NextFn: func() bool {
				if emitted >= spoutN {
					return false
				}
				col.Emit(dsps.Values{emitted}, emitted)
				emitted++
				return true
			},
		}
	}, 1, "n")
	b.SetBolt("work", func() dsps.Bolt { return &dsps.BoltFunc{} }, 2).
		ShuffleGrouping("src").
		WithExecCost(50 * time.Microsecond)
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := dsps.NewCluster(dsps.ClusterConfig{Nodes: 1, Delayer: dsps.NopDelayer{}, Seed: 7})
	if err := c.Submit(topo, dsps.SubmitConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	s := NewSampler(0)
	for i := 0; i < 5; i++ {
		s.Sample(c.Snapshot())
		time.Sleep(20 * time.Millisecond)
	}
	c.Drain(5 * time.Second)
	s.Sample(c.Snapshot())
	workers := s.Workers()
	if len(workers) != 2 {
		t.Fatalf("workers = %v", workers)
	}
	var sawWork bool
	for _, id := range workers {
		for _, w := range s.Series(id) {
			if w.ExecRate > 0 {
				sawWork = true
				if w.AvgExecMs <= 0 {
					t.Fatalf("window with work has zero latency: %+v", w)
				}
			}
		}
	}
	if !sawWork {
		t.Fatal("no window recorded any work")
	}
}
