package trace

import (
	"math"
	"testing"

	"predstream/internal/stats"
	"predstream/internal/telemetry"
)

func TestSyntheticShapes(t *testing.T) {
	traces := Synthetic(SyntheticConfig{Workers: 4, Nodes: 2, Steps: 100, Seed: 1})
	if len(traces) != 4 {
		t.Fatalf("got %d workers", len(traces))
	}
	for id, wins := range traces {
		if len(wins) != 100 {
			t.Fatalf("%s has %d windows", id, len(wins))
		}
		for i, w := range wins {
			if w.AvgExecMs <= 0 {
				t.Fatalf("%s window %d has non-positive proc time", id, i)
			}
			if w.ExecRate < 0 || w.QueueLen < 0 {
				t.Fatalf("%s window %d has negative stats: %+v", id, i, w)
			}
			if w.CoWorkers != 1 {
				t.Fatalf("4 workers over 2 nodes should give 1 co-worker, got %v", w.CoWorkers)
			}
		}
	}
}

func TestSyntheticDeterministicBySeed(t *testing.T) {
	a := Synthetic(SyntheticConfig{Steps: 50, Seed: 7})
	b := Synthetic(SyntheticConfig{Steps: 50, Seed: 7})
	for id := range a {
		for i := range a[id] {
			if a[id][i].AvgExecMs != b[id][i].AvgExecMs {
				t.Fatal("same seed diverged")
			}
		}
	}
	c := Synthetic(SyntheticConfig{Steps: 50, Seed: 8})
	same := true
	for i := range a["worker-0"] {
		if a["worker-0"][i].AvgExecMs != c["worker-0"][i].AvgExecMs {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestSyntheticInterferenceCouplesWorkers(t *testing.T) {
	// With strong interference, a worker's processing time must correlate
	// positively with its node utilization proxy (its own + co-worker
	// load).
	traces := Synthetic(SyntheticConfig{Workers: 4, Nodes: 1, Cores: 2, Alpha: 3, Steps: 400, Seed: 4})
	wins := traces["worker-0"]
	var load, proc []float64
	for _, w := range wins {
		load = append(load, w.ExecRate+w.CoExecRate)
		proc = append(proc, w.AvgExecMs)
	}
	// Pearson correlation.
	ml, mp := stats.Mean(load), stats.Mean(proc)
	var cov, vl, vp float64
	for i := range load {
		cov += (load[i] - ml) * (proc[i] - mp)
		vl += (load[i] - ml) * (load[i] - ml)
		vp += (proc[i] - mp) * (proc[i] - mp)
	}
	corr := cov / (math.Sqrt(vl) * math.Sqrt(vp))
	if corr < 0.3 {
		t.Fatalf("load-latency correlation %v too weak for interference model", corr)
	}
}

func TestSyntheticToSeriesIsValid(t *testing.T) {
	traces := Synthetic(SyntheticConfig{Steps: 50, Seed: 5})
	s := telemetry.ToSeries(traces["worker-1"], telemetry.TargetProcTime, telemetry.FeatureConfig{Interference: true})
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 50 || s.FeatureDim() != 9 {
		t.Fatalf("series %d×%d", s.Len(), s.FeatureDim())
	}
}
