package nn

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func randSeqs(rng *rand.Rand, b, t, in int) [][][]float64 {
	seqs := make([][][]float64, b)
	for i := range seqs {
		seq := make([][]float64, t)
		for s := range seq {
			row := make([]float64, in)
			for d := range row {
				row[d] = rng.NormFloat64()
			}
			seq[s] = row
		}
		seqs[i] = seq
	}
	return seqs
}

func testArchs() []Arch {
	return []Arch{
		{In: 3, LSTMHidden: []int{8}, Out: 1},
		{In: 5, LSTMHidden: []int{16, 8}, DenseHidden: []int{6}, Out: 2},
		{In: 9, LSTMHidden: []int{12, 12}, DenseHidden: []int{8}, Out: 1, HiddenAct: ReLU},
	}
}

// TestBatchRunnerMatchesForward pins the core contract: the batched GEMM
// forward path produces bitwise-identical outputs to the per-sequence
// inference path, for single and stacked LSTMs, at every batch size including
// the micro-kernel remainder lanes.
func TestBatchRunnerMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for ai, arch := range testArchs() {
		net := NewNetwork(arch, rng)
		runner := NewBatchRunner(net, BatchOptions{})
		for _, B := range []int{1, 2, 4, 5, 9} {
			seqs := randSeqs(rng, B, 7, arch.In)
			dst := make([][]float64, B)
			for i := range dst {
				dst[i] = make([]float64, arch.Out)
			}
			if err := runner.Forward(seqs, dst); err != nil {
				t.Fatalf("arch %d B=%d: %v", ai, B, err)
			}
			for b, seq := range seqs {
				want := net.Forward(seq)
				for j := range want {
					if dst[b][j] != want[j] {
						t.Fatalf("arch %d B=%d seq %d out %d: batched %v != serial %v",
							ai, B, b, j, dst[b][j], want[j])
					}
				}
			}
		}
	}
}

func TestBatchRunnerPreScale(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	arch := Arch{In: 4, LSTMHidden: []int{8}, Out: 1}
	net := NewNetwork(arch, rng)
	scale := func(dst, src []float64) {
		for i, v := range src {
			dst[i] = (v - 2) / 3
		}
	}
	runner := NewBatchRunner(net, BatchOptions{PreScale: scale})
	seqs := randSeqs(rng, 3, 5, arch.In)
	dst := [][]float64{{0}, {0}, {0}}
	if err := runner.Forward(seqs, dst); err != nil {
		t.Fatal(err)
	}
	// Reference: scale by hand, then plain forward.
	for b, seq := range seqs {
		scaled := make([][]float64, len(seq))
		for t := range seq {
			scaled[t] = make([]float64, len(seq[t]))
			scale(scaled[t], seq[t])
		}
		want := net.Forward(scaled)
		if dst[b][0] != want[0] {
			t.Fatalf("seq %d: prescaled batch %v != reference %v", b, dst[b][0], want[0])
		}
	}
}

// TestBatchRunnerConcurrent hammers one runner from many goroutines; with
// -race this pins the sync.Pool workspace isolation (no cross-request
// state sharing, every caller gets its own rows back).
func TestBatchRunnerConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	arch := Arch{In: 4, LSTMHidden: []int{8, 8}, DenseHidden: []int{6}, Out: 1}
	net := NewNetwork(arch, rng)
	runner := NewBatchRunner(net, BatchOptions{})

	// Precompute references serially (net.Forward mutates layer caches, so
	// it is not used concurrently).
	const workers = 8
	const iters = 20
	seqs := make([][][][]float64, workers)
	want := make([][]float64, workers)
	for w := 0; w < workers; w++ {
		seqs[w] = randSeqs(rng, 3, 6, arch.In)
		for _, seq := range seqs[w] {
			want[w] = append(want[w], net.Forward(seq)[0])
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := [][]float64{{0}, {0}, {0}}
			for i := 0; i < iters; i++ {
				if err := runner.Forward(seqs[w], dst); err != nil {
					errs <- err
					return
				}
				for b := range dst {
					if dst[b][0] != want[w][b] {
						errs <- fmt.Errorf("worker %d seq %d: got %v want %v", w, b, dst[b][0], want[w][b])
						return
					}
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

func TestBatchRunnerShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork(Arch{In: 3, LSTMHidden: []int{4}, Out: 1}, rng)
	runner := NewBatchRunner(net, BatchOptions{})
	cases := []struct {
		name string
		seqs [][][]float64
		dst  [][]float64
	}{
		{"empty batch", nil, nil},
		{"empty sequence", [][][]float64{{}}, [][]float64{{0}}},
		{"ragged steps", [][][]float64{{{1, 2, 3}}, {{1, 2, 3}, {1, 2, 3}}}, [][]float64{{0}, {0}}},
		{"bad features", [][][]float64{{{1, 2}}}, [][]float64{{0}}},
		{"bad dst len", [][][]float64{{{1, 2, 3}}}, nil},
		{"bad dst width", [][][]float64{{{1, 2, 3}}}, [][]float64{{0, 0}}},
	}
	for _, c := range cases {
		if err := runner.Forward(c.seqs, c.dst); err == nil {
			t.Fatalf("%s: expected error", c.name)
		}
	}
}

// BenchmarkBatchForward compares batched against per-sequence forward at
// the DRNN serving shape (window 10, 9 features, 32+32 LSTM, 16 dense).
func BenchmarkBatchForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	arch := Arch{In: 9, LSTMHidden: []int{32, 32}, DenseHidden: []int{16}, Out: 1}
	net := NewNetwork(arch, rng)
	runner := NewBatchRunner(net, BatchOptions{})
	for _, B := range []int{1, 8, 32} {
		seqs := randSeqs(rng, B, 10, arch.In)
		dst := make([][]float64, B)
		for i := range dst {
			dst[i] = make([]float64, 1)
		}
		b.Run(fmt.Sprintf("B%d", B), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := runner.Forward(seqs, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*B), "ns/window")
		})
	}
}

// BenchmarkSerialForward is the per-sequence baseline for
// BenchmarkBatchForward.
func BenchmarkSerialForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	arch := Arch{In: 9, LSTMHidden: []int{32, 32}, DenseHidden: []int{16}, Out: 1}
	net := NewNetwork(arch, rng)
	seqs := randSeqs(rng, 32, 10, arch.In)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		net.Forward(seqs[i%len(seqs)])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/window")
}

// TestWrapAliasInvariant guards the workspace-arena assumption: growing a
// buf preserves previously returned views only until the next growth, so
// the runner never holds a view across an ensure call. This is exercised
// indirectly everywhere; the explicit check documents the contract.
func TestWrapAliasInvariant(t *testing.T) {
	var b buf
	m1 := b.mat(2, 2)
	m1.Set(0, 0, 42)
	m2 := b.mat(2, 2) // same capacity: aliases
	if m2.At(0, 0) != 42 {
		t.Fatal("expected alias of backing buffer")
	}
}
