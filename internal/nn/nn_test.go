package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func TestActivations(t *testing.T) {
	if got := Sigmoid.F(0); got != 0.5 {
		t.Fatalf("sigmoid(0) = %v", got)
	}
	if got := Sigmoid.Deriv(0.5); got != 0.25 {
		t.Fatalf("sigmoid'(y=0.5) = %v", got)
	}
	if got := Tanh.F(0); got != 0 {
		t.Fatalf("tanh(0) = %v", got)
	}
	if got := Tanh.Deriv(0); got != 1 {
		t.Fatalf("tanh'(y=0) = %v", got)
	}
	if ReLU.F(-1) != 0 || ReLU.F(2) != 2 {
		t.Fatal("relu wrong")
	}
	if ReLU.Deriv(0) != 0 || ReLU.Deriv(3) != 1 {
		t.Fatal("relu' wrong")
	}
	if Identity.F(7) != 7 || Identity.Deriv(7) != 1 {
		t.Fatal("identity wrong")
	}
	for _, name := range []string{"sigmoid", "tanh", "relu", "identity"} {
		if got := ActivationByName(name).Name; name != "identity" && got != name {
			t.Fatalf("ActivationByName(%q).Name = %q", name, got)
		}
	}
	if ActivationByName("bogus").Name != "identity" {
		t.Fatal("unknown activation should fall back to identity")
	}
}

func TestDenseForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(2, 1, Identity, rng)
	w, b := d.Weights()
	w.Set(0, 0, 2)
	w.Set(0, 1, 3)
	b.Set(0, 0, 1)
	out := d.Forward([]float64{1, 1})
	if out[0] != 6 {
		t.Fatalf("dense forward = %v want 6", out)
	}
}

func TestDenseBackwardMatchesNumeric(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := &Network{
		Recurrent: []*LSTM{NewLSTM(3, 4, rng)},
		Head:      []*Dense{NewDense(4, 2, Tanh, rng), NewDense(2, 1, Identity, rng)},
	}
	seq := [][]float64{{0.1, -0.2, 0.3}, {0.5, 0.4, -0.1}}
	worst := GradCheck(net, seq, []float64{0.7}, MSE{}, 1e-5)
	if worst > 1e-4 {
		t.Fatalf("gradient check worst relative error %v", worst)
	}
}

func TestLSTMGradCheckStacked(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewNetwork(Arch{In: 2, LSTMHidden: []int{3, 3}, DenseHidden: []int{4}, Out: 2}, rng)
	seq := [][]float64{{0.2, -0.5}, {0.1, 0.9}, {-0.3, 0.4}}
	worst := GradCheck(net, seq, []float64{0.5, -0.2}, MSE{}, 1e-5)
	if worst > 1e-4 {
		t.Fatalf("stacked gradient check worst relative error %v", worst)
	}
}

func TestLSTMForwardShapesAndStatePropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	l := NewLSTM(2, 5, rng)
	seq := [][]float64{{1, 0}, {0, 1}, {1, 1}}
	out := l.ForwardSeq(seq)
	if len(out) != 3 {
		t.Fatalf("got %d outputs", len(out))
	}
	for _, h := range out {
		if len(h) != 5 {
			t.Fatalf("hidden size = %d", len(h))
		}
		for _, v := range h {
			if math.Abs(v) >= 1 {
				t.Fatalf("hidden value %v out of (-1,1)", v)
			}
		}
	}
	// Same input at t=0 and t=2 must produce different hidden states
	// because state propagates.
	same := true
	for i := range out[0] {
		if out[0][i] != out[2][i] {
			same = false
		}
	}
	if same {
		t.Fatal("LSTM ignored its recurrent state")
	}
}

func TestLSTMForwardResetsBetweenSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := NewLSTM(1, 3, rng)
	a := l.ForwardSeq([][]float64{{0.5}})
	b := l.ForwardSeq([][]float64{{0.5}})
	for i := range a[0] {
		if a[0][i] != b[0][i] {
			t.Fatal("LSTM state leaked across sequences")
		}
	}
}

func TestNetworkLearnsNextValueOfSine(t *testing.T) {
	// The canonical small-RNN task: predict sin(t+1) from a window of
	// sin values. The net must reach a far lower loss than predicting the
	// window mean.
	rng := rand.New(rand.NewSource(6))
	const window = 8
	var data Dataset
	for i := 0; i < 200; i++ {
		seq := make([][]float64, window)
		for t := 0; t < window; t++ {
			seq[t] = []float64{math.Sin(0.3 * float64(i+t))}
		}
		data.X = append(data.X, seq)
		data.Y = append(data.Y, []float64{math.Sin(0.3 * float64(i+window))})
	}
	net := NewNetwork(Arch{In: 1, LSTMHidden: []int{12}, Out: 1}, rng)
	losses, err := Train(net, data, TrainConfig{
		Epochs:    30,
		Optimizer: NewAdam(5e-3),
		ClipNorm:  5,
		Shuffle:   true,
		Rng:       rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if losses[len(losses)-1] > losses[0]/10 {
		t.Fatalf("training barely improved: first=%v last=%v", losses[0], losses[len(losses)-1])
	}
	if losses[len(losses)-1] > 0.01 {
		t.Fatalf("final loss %v too high", losses[len(losses)-1])
	}
}

func TestTrainValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	net := NewNetwork(Arch{In: 2, LSTMHidden: []int{3}, Out: 1}, rng)
	if _, err := Train(net, Dataset{}, TrainConfig{Epochs: 1}); err == nil {
		t.Fatal("empty dataset should error")
	}
	bad := Dataset{X: [][][]float64{{{1}}}, Y: [][]float64{{1}}}
	if _, err := Train(net, bad, TrainConfig{Epochs: 1}); err == nil {
		t.Fatal("feature-size mismatch should error")
	}
	good := Dataset{X: [][][]float64{{{1, 2}}}, Y: [][]float64{{1}}}
	if _, err := Train(net, good, TrainConfig{Epochs: 0}); err == nil {
		t.Fatal("zero epochs should error")
	}
	if _, err := Train(net, good, TrainConfig{Epochs: 1, Shuffle: true}); err == nil {
		t.Fatal("shuffle without rng should error")
	}
}

func TestMiniBatchTrainingLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const window = 8
	var data Dataset
	for i := 0; i < 150; i++ {
		seq := make([][]float64, window)
		for k := 0; k < window; k++ {
			seq[k] = []float64{math.Sin(0.3 * float64(i+k))}
		}
		data.X = append(data.X, seq)
		data.Y = append(data.Y, []float64{math.Sin(0.3 * float64(i+window))})
	}
	net := NewNetwork(Arch{In: 1, LSTMHidden: []int{12}, Out: 1}, rng)
	losses, err := Train(net, data, TrainConfig{
		Epochs:    30,
		Optimizer: NewAdam(5e-3),
		ClipNorm:  5,
		BatchSize: 8,
		Shuffle:   true,
		Rng:       rng,
	})
	if err != nil {
		t.Fatal(err)
	}
	if losses[len(losses)-1] > 0.02 {
		t.Fatalf("mini-batch final loss %v too high", losses[len(losses)-1])
	}
}

func TestMiniBatchGradientAveraging(t *testing.T) {
	// With a full-dataset batch and SGD, one epoch equals one step on the
	// mean gradient: duplicating an example must not change the update.
	mk := func(dup int) []float64 {
		rng := rand.New(rand.NewSource(22))
		net := NewNetwork(Arch{In: 1, LSTMHidden: []int{3}, Out: 1}, rng)
		var data Dataset
		for i := 0; i < dup; i++ {
			data.X = append(data.X, [][]float64{{0.5}})
			data.Y = append(data.Y, []float64{0.25})
		}
		_, err := Train(net, data, TrainConfig{
			Epochs:    1,
			Optimizer: sgd{0.1},
			BatchSize: dup,
		})
		if err != nil {
			t.Fatal(err)
		}
		return net.Forward([][]float64{{0.5}})
	}
	a := mk(1)
	b := mk(4)
	if math.Abs(a[0]-b[0]) > 1e-12 {
		t.Fatalf("duplicated batch changed the averaged update: %v vs %v", a[0], b[0])
	}
}

// TestTrainEarlyStopping pins Patience: with a zero learning rate the
// epoch loss never improves on the first epoch's, so training stops after
// Patience further epochs.
func TestTrainEarlyStopping(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	net := NewNetwork(Arch{In: 1, LSTMHidden: []int{2}, Out: 1}, rng)
	data := Dataset{X: [][][]float64{{{0.5}}}, Y: [][]float64{{0.5}}}
	losses, err := Train(net, data, TrainConfig{
		Epochs:    100,
		Optimizer: sgd{0},
		Patience:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != 3 {
		t.Fatalf("Patience 2 stop produced %d epochs, want 3", len(losses))
	}
}

func TestLossValuesAndGrads(t *testing.T) {
	pred := []float64{2, 4}
	target := []float64{1, 2}
	if got := (MSE{}).Value(pred, target); got != (1.0+4.0)/4 {
		t.Fatalf("MSE = %v", got)
	}
	g := (MSE{}).Grad(pred, target)
	if g[0] != 0.5 || g[1] != 1 {
		t.Fatalf("MSE grad = %v", g)
	}
}

func TestOptimizersReduceQuadraticLoss(t *testing.T) {
	// Each optimizer must minimize a 1-parameter quadratic via the Param
	// machinery.
	for _, tc := range []struct {
		name string
		opt  Optimizer
	}{
		{"sgd", sgd{0.1}},
		{"adam", NewAdam(0.1)},
	} {
		rng := rand.New(rand.NewSource(10))
		net := NewNetwork(Arch{In: 1, LSTMHidden: []int{4}, Out: 1}, rng)
		data := Dataset{
			X: [][][]float64{{{0.1}}, {{0.9}}},
			Y: [][]float64{{0.2}, {0.8}},
		}
		losses, err := Train(net, data, TrainConfig{Epochs: 60, Optimizer: tc.opt})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if losses[len(losses)-1] >= losses[0] {
			t.Fatalf("%s did not reduce loss: %v -> %v", tc.name, losses[0], losses[len(losses)-1])
		}
	}
}

func TestClipGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	d := NewDense(2, 2, Identity, rng)
	params := d.Params()
	for _, p := range params {
		p.Grad.Fill(10)
	}
	before := GlobalNorm(params)
	norm := ClipGradients(params, 1)
	if math.Abs(norm-before) > 1e-12 {
		t.Fatalf("reported pre-clip norm %v want %v", norm, before)
	}
	if after := GlobalNorm(params); math.Abs(after-1) > 1e-9 {
		t.Fatalf("post-clip norm = %v", after)
	}
	// Disabled clipping leaves gradients alone.
	for _, p := range params {
		p.Grad.Fill(10)
	}
	ClipGradients(params, 0)
	if got := GlobalNorm(params); math.Abs(got-before) > 1e-12 {
		t.Fatalf("disabled clip changed norm to %v", got)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := NewNetwork(Arch{In: 3, LSTMHidden: []int{4, 5}, DenseHidden: []int{6}, Out: 2, HiddenAct: ReLU}, rng)
	seq := [][]float64{{0.1, 0.2, 0.3}, {-0.1, 0.5, 0.2}}
	want := net.Forward(seq)

	var buf bytes.Buffer
	if err := Save(net, &buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := loaded.Forward(seq)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("round-trip output %v want %v", got, want)
		}
	}
	if loaded.NumParams() != net.NumParams() {
		t.Fatalf("param count changed: %d vs %d", loaded.NumParams(), net.NumParams())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("garbage checkpoint should error")
	}
}

// TestLoadRejectsMalformedCheckpoint feeds Load checkpoints that decode
// cleanly but describe no network this package builds: each must come
// back as an error, never a panic.
func TestLoadRejectsMalformedCheckpoint(t *testing.T) {
	var good bytes.Buffer
	if err := Save(NewNetwork(Arch{In: 3, LSTMHidden: []int{4}, Out: 1}, rand.New(rand.NewSource(21))), &good); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		edit func(cp *checkpoint)
		want string
	}{
		{"unknown cell", func(cp *checkpoint) { cp.Cell = "rnn" }, `cell "rnn"`},
		{"gru cell", func(cp *checkpoint) { cp.Cell = "gru" }, `cell "gru"`},
		{"negative hidden size", func(cp *checkpoint) { cp.LSTMHidden = []int{-4} }, "hidden size -4"},
		{"zero input size", func(cp *checkpoint) { cp.In = 0 }, "in=0"},
		{"negative dense size", func(cp *checkpoint) {
			cp.DenseHidden = []int{-2}
			cp.HeadW = append(cp.HeadW, cp.HeadW[0])
			cp.HeadB = append(cp.HeadB, cp.HeadB[0])
		}, "dense layer 0 has size -2"},
		{"hidden size disagrees with weights", func(cp *checkpoint) { cp.LSTMHidden = []int{1 << 50} }, "lstm wx[0]"},
		{"missing head layer", func(cp *checkpoint) { cp.HeadW, cp.HeadB = nil, nil }, "layer count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var cp checkpoint
			if err := gob.NewDecoder(bytes.NewReader(good.Bytes())).Decode(&cp); err != nil {
				t.Fatal(err)
			}
			tc.edit(&cp)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
				t.Fatal(err)
			}
			net, err := Load(&buf)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Load = %v, %v; want an error containing %q", net, err, tc.want)
			}
		})
	}
}

func TestEvaluateLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := NewNetwork(Arch{In: 1, LSTMHidden: []int{2}, Out: 1}, rng)
	data := Dataset{X: [][][]float64{{{0.5}}}, Y: [][]float64{{0}}}
	l, err := EvaluateLoss(net, data, MSE{})
	if err != nil {
		t.Fatal(err)
	}
	if l < 0 {
		t.Fatalf("loss = %v", l)
	}
	if _, err := EvaluateLoss(net, Dataset{}, nil); err == nil {
		t.Fatal("empty dataset should error")
	}
}

func TestNumParamsMatchesArchitecture(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	net := NewNetwork(Arch{In: 2, LSTMHidden: []int{3}, Out: 1}, rng)
	// LSTM: 4 gates × (3×2 + 3×3 + 3) = 4×18 = 72. Head: 1×3 + 1 = 4.
	if got := net.NumParams(); got != 76 {
		t.Fatalf("NumParams = %d want 76", got)
	}
}

func BenchmarkForwardWindow10(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	net := NewNetwork(Arch{In: 12, LSTMHidden: []int{32, 32}, DenseHidden: []int{16}, Out: 1}, rng)
	seq := make([][]float64, 10)
	for t := range seq {
		seq[t] = make([]float64, 12)
		for i := range seq[t] {
			seq[t][i] = rng.Float64()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(seq)
	}
}

func BenchmarkTrainStepWindow10(b *testing.B) {
	rng := rand.New(rand.NewSource(16))
	net := NewNetwork(Arch{In: 12, LSTMHidden: []int{32, 32}, DenseHidden: []int{16}, Out: 1}, rng)
	seq := make([][]float64, 10)
	for t := range seq {
		seq[t] = make([]float64, 12)
		for i := range seq[t] {
			seq[t][i] = rng.Float64()
		}
	}
	target := []float64{0.5}
	opt := NewAdam(1e-3)
	params := net.Params()
	loss := MSE{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pred := net.Forward(seq)
		net.Backward(loss.Grad(pred, target))
		ClipGradients(params, 5)
		opt.Step(params)
	}
}
