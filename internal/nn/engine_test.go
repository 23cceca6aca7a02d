package nn

import (
	"math"
	"math/rand"
	"testing"
)

// engineDataset builds a deterministic synthetic regression set.
func engineDataset(n, seqLen, in, out int, seed int64) Dataset {
	rng := rand.New(rand.NewSource(seed))
	ds := Dataset{}
	for i := 0; i < n; i++ {
		seq := make([][]float64, seqLen)
		var sum float64
		for t := range seq {
			x := make([]float64, in)
			for j := range x {
				x[j] = rng.NormFloat64() * 0.5
				sum += x[j]
			}
			seq[t] = x
		}
		y := make([]float64, out)
		for j := range y {
			y[j] = math.Tanh(sum / float64(seqLen*in))
		}
		ds.X = append(ds.X, seq)
		ds.Y = append(ds.Y, y)
	}
	return ds
}

func engineArch() Arch {
	return Arch{In: 4, LSTMHidden: []int{8}, DenseHidden: []int{6}, Out: 2}
}

// trainLossesWithWorkers trains a fresh, identically seeded network with the
// given worker count and returns the per-epoch losses plus final weights.
func trainLossesWithWorkers(t *testing.T, arch Arch, workers int) ([]float64, []float64) {
	t.Helper()
	net := NewNetwork(arch, rand.New(rand.NewSource(42)))
	ds := engineDataset(24, 6, arch.In, arch.Out, 7)
	losses, err := Train(net, ds, TrainConfig{
		Epochs:    4,
		Optimizer: NewAdam(5e-3),
		Loss:      MSE{},
		BatchSize: 6,
		Shuffle:   true,
		Rng:       rand.New(rand.NewSource(99)),
		Workers:   workers,
	})
	if err != nil {
		t.Fatalf("Train(workers=%d): %v", workers, err)
	}
	var flat []float64
	for _, p := range net.Params() {
		flat = append(flat, p.W.Data()...)
	}
	return losses, flat
}

// TestTrainWorkersDeterminism is the fixed-seed loss-curve equivalence
// check from the training-engine contract: any worker count must produce
// bitwise-identical per-epoch losses and final weights, because gradients
// reduce in example order and losses sum in position order.
func TestTrainWorkersDeterminism(t *testing.T) {
	arch := engineArch()
	baseLosses, baseWeights := trainLossesWithWorkers(t, arch, 1)
	for _, workers := range []int{2, 4} {
		losses, weights := trainLossesWithWorkers(t, arch, workers)
		if len(losses) != len(baseLosses) {
			t.Fatalf("workers=%d ran %d epochs, workers=1 ran %d", workers, len(losses), len(baseLosses))
		}
		for e := range losses {
			if losses[e] != baseLosses[e] {
				t.Fatalf("workers=%d epoch %d loss %v != workers=1 loss %v (diff %g)",
					workers, e, losses[e], baseLosses[e], losses[e]-baseLosses[e])
			}
		}
		for i := range weights {
			if weights[i] != baseWeights[i] {
				t.Fatalf("workers=%d final weight %d = %v != workers=1 %v", workers, i, weights[i], baseWeights[i])
			}
		}
	}
}

// TestReplicateSharesWeightsOwnsGrads verifies the replica contract: same
// forward outputs, weight mutations on the main copy visible to replicas,
// and gradient accumulation fully isolated.
func TestReplicateSharesWeightsOwnsGrads(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := NewNetwork(Arch{In: 3, LSTMHidden: []int{4}, Out: 1}, rng)
	rep := net.Replicate()
	seq := [][]float64{{0.1, -0.2, 0.3}, {0.4, 0.0, -0.5}}

	a := net.Forward(seq)
	got := append([]float64(nil), a...)
	b := rep.Forward(seq)
	for i := range got {
		if got[i] != b[i] {
			t.Fatalf("replica forward[%d] = %v, main = %v", i, b[i], got[i])
		}
	}

	rep.Backward([]float64{1})
	for _, p := range net.Params() {
		if p.Grad.Norm() != 0 {
			t.Fatalf("replica Backward leaked into main grad %s", p.Name)
		}
	}
	var repAccum float64
	for _, p := range rep.Params() {
		repAccum += p.Grad.Norm()
	}
	if repAccum == 0 {
		t.Fatal("replica Backward accumulated nothing")
	}

	// In-place weight mutation on the main copy must be visible to the replica.
	net.Params()[0].W.Data()[0] += 0.25
	c := net.Forward(seq)
	got = append(got[:0], c...)
	d := rep.Forward(seq)
	for i := range got {
		if got[i] != d[i] {
			t.Fatalf("replica did not observe main weight update")
		}
	}
}

// TestGradCheckAfterWorkspaceReuse runs the network over sequences of
// varying length to exercise workspace growth and reuse, then gradchecks:
// stale state in a reused buffer would show up as a wrong analytic gradient.
func TestGradCheckAfterWorkspaceReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net := NewNetwork(Arch{In: 2, LSTMHidden: []int{3, 3}, DenseHidden: []int{4}, Out: 1}, rng)
	dataRng := rand.New(rand.NewSource(23))
	mkSeq := func(n int) [][]float64 {
		seq := make([][]float64, n)
		for t := range seq {
			seq[t] = []float64{dataRng.NormFloat64(), dataRng.NormFloat64()}
		}
		return seq
	}
	// Longer sequence first, then shorter: reuse must not read stale tail steps.
	for _, n := range []int{6, 3, 5} {
		pred := net.Forward(mkSeq(n))
		net.Backward([]float64{pred[0]})
	}
	for _, p := range net.Params() {
		p.ZeroGrad()
	}
	worst := GradCheck(net, mkSeq(4), []float64{0.3}, MSE{}, 1e-5)
	if worst > 1e-4 {
		t.Fatalf("gradcheck after workspace reuse: worst relative error %v", worst)
	}
}
