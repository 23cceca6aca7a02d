package drnn

import (
	"hash/fnv"
	"math"
	"sort"
	"testing"
	"time"

	"predstream/internal/telemetry"
	"predstream/internal/timeseries"
	"predstream/internal/trace"
	"predstream/internal/workload"
)

// fingerprintSeries is the synthetic series the benchmark's train_fit
// workload fits, split 70/30 into train and held-out.
func fingerprintSeries(t *testing.T) (series, train *timeseries.Series) {
	t.Helper()
	traces := trace.Synthetic(trace.SyntheticConfig{
		Workers: 4, Nodes: 2, BaseMs: 1,
		Shape: workload.SinusoidRate{Base: 900, Amplitude: 500, Period: 50 * time.Second},
		Steps: 2000, Seed: 1,
	})
	ids := make([]string, 0, len(traces))
	for id := range traces {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	series = telemetry.ToSeries(traces[ids[0]], telemetry.TargetProcTime, telemetry.FeatureConfig{Interference: true})
	if err := series.Validate(); err != nil {
		t.Fatal(err)
	}
	return series, series.Slice(0, series.Len()*7/10)
}

// hashFloats is FNV-64a over the IEEE-754 bits of xs.
func hashFloats(xs []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		u := math.Float64bits(x)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// fitFingerprint fits cfg on the train split and returns the final loss
// bits, a hash of the whole loss history, a hash of the walk-forward
// forecasts over the held-out steps, and a hash of one batched
// Inference.PredictBatch over every held-out window.
func fitFingerprint(t *testing.T, cfg Config, walkEvery int) (lossBits, histHash, walkHash, batchHash uint64) {
	t.Helper()
	series, train := fingerprintSeries(t)
	p := New(cfg)
	if err := p.Fit(train); err != nil {
		t.Fatal(err)
	}
	hist := p.LossHistory()
	if len(hist) == 0 {
		t.Fatal("empty loss history")
	}
	var walk []float64
	for i := train.Len(); i < series.Len(); i += walkEvery {
		v, err := p.Predict(series.Slice(0, i), 1)
		if err != nil {
			t.Fatal(err)
		}
		walk = append(walk, v)
	}
	windows, _, err := timeseries.Window(series.Slice(train.Len()-p.Config().Window, series.Len()), p.Config().Window, 1)
	if err != nil {
		t.Fatal(err)
	}
	inf, err := p.Inference(false)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(windows))
	if err := inf.PredictBatch(windows, out); err != nil {
		t.Fatal(err)
	}
	return math.Float64bits(hist[len(hist)-1]), hashFloats(hist), hashFloats(walk), hashFloats(out)
}

// TestFitFingerprintGolden pins a 2-epoch SGD fit and a 1-epoch
// mini-batch fit on the 2000-step synthetic trace (seed 1, first worker,
// interference features) against bits recorded before the GEMV and BPTT
// kernels were register-blocked: those kernels reorder loops, never the
// adds inside one sum, so every bit must survive. Any change to the order
// of a floating-point sum in mat or nn moves these; regenerate them only
// for a deliberate numerical change, and say so in the change description.
func TestFitFingerprintGolden(t *testing.T) {
	cases := []struct {
		name                    string
		cfg                     Config
		walkEvery               int
		loss, hist, walk, batch uint64
	}{
		{"sgd", Config{Epochs: 2, Patience: -1, Seed: 1}, 1,
			0x3fd21bbfbe1dc87a, 0xf33f8068d7235a52, 0xea6814452a5f503c, 0xea6814452a5f503c},
		{"minibatch", Config{Epochs: 1, Patience: -1, BatchSize: 32, Seed: 1}, 8,
			0x3fd512c0135717d1, 0x0a49de2167fc74d9, 0xc0e0e167cb9585ca, 0x19fb58d2861adef4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			loss, hist, walk, batch := fitFingerprint(t, tc.cfg, tc.walkEvery)
			t.Logf("loss %#x hist %#x walk %#x batch %#x", loss, hist, walk, batch)
			if loss != tc.loss || hist != tc.hist || walk != tc.walk || batch != tc.batch {
				t.Fatalf("fingerprint (loss %#x hist %#x walk %#x batch %#x) != golden (%#x %#x %#x %#x)",
					loss, hist, walk, batch, tc.loss, tc.hist, tc.walk, tc.batch)
			}
		})
	}
}
