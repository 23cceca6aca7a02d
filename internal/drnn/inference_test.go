package drnn

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"predstream/internal/telemetry"
	"predstream/internal/timeseries"
	"predstream/internal/trace"
	"predstream/internal/workload"
)

// fitSeedCorpus trains a small predictor on the synthetic seed corpus and
// returns it with the held-out raw windows and a target-scale reference.
func fitSeedCorpus(t testing.TB) (*Predictor, [][][]float64) {
	t.Helper()
	traces := trace.Synthetic(trace.SyntheticConfig{
		Workers: 2, Nodes: 1, Cores: 4,
		BaseMs: 1.0,
		Shape:  workload.SinusoidRate{Base: 900, Amplitude: 500, Period: 50 * time.Second},
		Steps:  160, Seed: 1,
	})
	series := telemetry.ToSeries(traces["worker-0"], telemetry.TargetProcTime,
		telemetry.FeatureConfig{Interference: true})
	split := 120
	train := &timeseries.Series{Points: series.Points[:split]}
	test := &timeseries.Series{Points: series.Points[split:]}
	p := New(Config{Window: 10, Hidden: []int{12}, DenseHidden: []int{6}, Epochs: 8, Seed: 1})
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	windows, _, err := timeseries.Window(test, p.Config().Window, p.Config().Horizon)
	if err != nil {
		t.Fatal(err)
	}
	return p, windows
}

// TestInferenceMatchesPredict pins that the float serving path is bitwise
// identical to the per-call Predict path on the same contexts.
func TestInferenceMatchesPredict(t *testing.T) {
	p, windows := fitSeedCorpus(t)
	inf, err := p.Inference(false)
	if err != nil {
		t.Fatal(err)
	}
	if inf.Window() != 10 || inf.Features() != 9 {
		t.Fatalf("unexpected handle shape: window %d features %d", inf.Window(), inf.Features())
	}
	out := make([]float64, len(windows))
	if err := inf.PredictBatch(windows, out); err != nil {
		t.Fatal(err)
	}
	for i, win := range windows {
		ctx := &timeseries.Series{Points: make([]timeseries.Point, len(win))}
		for s, row := range win {
			ctx.Points[s] = timeseries.Point{Features: row}
		}
		want, err := p.Predict(ctx, 1)
		if err != nil {
			t.Fatal(err)
		}
		if out[i] != want {
			t.Fatalf("window %d: batched %v != Predict %v", i, out[i], want)
		}
	}
}

// TestInferenceConcurrent hammers one handle from many goroutines (run
// under -race): results must match the serial answers exactly, pinning
// the pooled-workspace isolation at the serving boundary.
func TestInferenceConcurrent(t *testing.T) {
	p, windows := fitSeedCorpus(t)
	if len(windows) > 8 {
		windows = windows[:8]
	}
	inf, err := p.Inference(false)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(windows))
	if err := inf.PredictBatch(windows, want); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				got, err := inf.PredictOne(windows[w%len(windows)])
				if err != nil {
					errs <- err
					return
				}
				if got != want[w%len(windows)] {
					errs <- fmt.Errorf("worker %d: got %v want %v", w, got, want[w%len(windows)])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestInferenceValidation covers unfitted models, the removed int8
// selector and shape errors.
func TestInferenceValidation(t *testing.T) {
	if _, err := New(Config{}).Inference(false); err != timeseries.ErrNotFitted {
		t.Fatalf("unfitted Inference error = %v, want ErrNotFitted", err)
	}
	p, windows := fitSeedCorpus(t)
	if inf, err := p.Inference(true); err == nil || inf != nil {
		t.Fatalf("Inference(true) = %v, %v; want the int8 path rejected", inf, err)
	}
	inf, err := p.Inference(false)
	if err != nil {
		t.Fatal(err)
	}
	if err := inf.PredictBatch(windows[:2], make([]float64, 3)); err == nil {
		t.Fatal("expected output-length mismatch error")
	}
	if err := inf.PredictBatch([][][]float64{windows[0][:4]}, make([]float64, 1)); err == nil {
		t.Fatal("expected short-window error")
	}
	bad := [][]float64{{1, 2}}
	for len(bad) < inf.Window() {
		bad = append(bad, []float64{1, 2})
	}
	if _, err := inf.PredictOne(bad); err == nil {
		t.Fatal("expected feature-width error")
	}
}
