package serve

import (
	"context"
	"math/rand"
	"testing"

	"predstream/internal/nn"
	"predstream/internal/obs"
)

// nnBackend adapts an nn batch runner to the Backend interface at the
// DRNN serving shape, skipping the (irrelevant here) scaler plumbing.
type nnBackend struct {
	runner  *nn.BatchRunner
	window  int
	feature int
	out     [][]float64
}

func newNNBackend(window, feature int) *nnBackend {
	rng := rand.New(rand.NewSource(1))
	net := nn.NewNetwork(nn.Arch{
		In: feature, LSTMHidden: []int{32, 32}, DenseHidden: []int{16}, Out: 1,
	}, rng)
	return &nnBackend{runner: nn.NewBatchRunner(net, nn.BatchOptions{}), window: window, feature: feature}
}

func (n *nnBackend) Window() int   { return n.window }
func (n *nnBackend) Features() int { return n.feature }

func (n *nnBackend) PredictBatch(windows [][][]float64, out []float64) error {
	rows := make([][]float64, len(windows))
	backing := make([]float64, len(windows))
	for i := range rows {
		rows[i] = backing[i : i+1]
	}
	if err := n.runner.Forward(windows, rows); err != nil {
		return err
	}
	copy(out, backing)
	return nil
}

// BenchmarkServePredict measures end-to-end request latency through the
// coalescer over a real DRNN-shaped forward path, with the benchmark's
// parallel clients standing in for concurrent connections. ns/op is the
// per-request wall latency; the p50/p99 metrics derived from the run are
// reported alongside.
func BenchmarkServePredict(b *testing.B) {
	backend := newNNBackend(10, 9)
	m := NewMetrics(obs.NewRegistry())
	c := NewCoalescer(backend, Options{MaxBatch: 16, QueueDepth: 1024}, m)
	defer c.Close()
	window := testWindow(10, 9, 1)
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := c.Predict(context.Background(), window); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	b.ReportMetric(c.m.Latency.Quantile(0.5)*1e9, "p50-ns")
	b.ReportMetric(c.m.Latency.Quantile(0.99)*1e9, "p99-ns")
	snap := m.BatchSize.Snapshot()
	if snap.Total() > 0 {
		b.ReportMetric(snap.Sum/float64(snap.Total()), "avg-batch")
	}
}

// BenchmarkServeWireCodec measures the TCP frame encode+decode round trip
// at the serving shape.
func BenchmarkServeWireCodec(b *testing.B) {
	window := testWindow(10, 9, 1.5)
	var frame []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		frame, err = EncodeWireFrame(frame[:0], window)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := DecodeWireFrame(frame[4:]); err != nil {
			b.Fatal(err)
		}
	}
}
