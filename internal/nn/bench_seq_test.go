package nn

import (
	"math/rand"
	"testing"
)

// BenchmarkLSTMSeqPair measures one ForwardSeq/BackwardSeq pair on a bare
// layer — the inner loop of training — so allocs/op directly exposes
// per-timestep buffer churn (the workspace keeps it at zero after warmup).
func BenchmarkLSTMSeqPair(b *testing.B) {
	const in, seqLen = 12, 20
	cell := NewLSTM(in, 32, rand.New(rand.NewSource(2)))
	rng := rand.New(rand.NewSource(1))
	seq := make([][]float64, seqLen)
	for t := range seq {
		seq[t] = make([]float64, in)
		for j := range seq[t] {
			seq[t][j] = rng.NormFloat64()
		}
	}
	dH := make([][]float64, seqLen)
	for t := range dH {
		dH[t] = make([]float64, cell.Hidden)
	}
	dH[seqLen-1][0] = 1
	cell.ForwardSeq(seq) // warm the workspace before measuring
	cell.BackwardSeq(dH)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cell.ForwardSeq(seq)
		cell.BackwardSeq(dH)
	}
}
