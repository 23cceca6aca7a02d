package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"predstream/internal/drnn"
	"predstream/internal/telemetry"
	"predstream/internal/timeseries"
	"predstream/internal/trace"
	"predstream/internal/workload"
)

// TestCoalescerOverFittedInference runs every dispatcher over a real
// fitted model with 64 concurrent callers (run it under -race): each
// reply must equal PredictOne of the caller's own window, whichever batch
// and whichever dispatcher evaluated it.
func TestCoalescerOverFittedInference(t *testing.T) {
	traces := trace.Synthetic(trace.SyntheticConfig{
		Workers: 2, Nodes: 1, Cores: 4, BaseMs: 1,
		Shape: workload.SinusoidRate{Base: 900, Amplitude: 500, Period: 50 * time.Second},
		Steps: 120, Seed: 1,
	})
	series := telemetry.ToSeries(traces["worker-0"], telemetry.TargetProcTime,
		telemetry.FeatureConfig{Interference: true})
	p := drnn.New(drnn.Config{Window: 10, Hidden: []int{8}, DenseHidden: []int{4}, Epochs: 2, Seed: 1})
	if err := p.Fit(series); err != nil {
		t.Fatal(err)
	}
	windows, _, err := timeseries.Window(series, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	const callers, perCaller = 64, 4
	inf, err := p.Inference(false)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(windows))
	for i, w := range windows {
		if want[i], err = inf.PredictOne(w); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCoalescer(inf, Options{MaxBatch: 16, QueueDepth: callers}, nil)
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for cl := 0; cl < callers; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for k := 0; k < perCaller; k++ {
				i := (cl*perCaller + k) % len(windows)
				got, err := c.Predict(context.Background(), windows[i])
				if err == nil && got != want[i] {
					err = fmt.Errorf("window %d: got %v, PredictOne %v", i, got, want[i])
				}
				if err != nil {
					errs <- fmt.Errorf("caller %d: %w", cl, err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	c.Close()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
