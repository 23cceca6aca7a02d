package nn

import (
	"fmt"
	"math/rand"
)

// Network is a sequence-to-one regression model: a stack of LSTM layers
// consumes the input window timestep by timestep, and a stack of dense
// layers maps the final hidden state to the output vector. This is exactly
// the paper's DRNN shape (LSTM layers + fully-connected output).
type Network struct {
	Recurrent []*LSTM
	Head      []*Dense

	lastSeqLen int
	dHTop      [][]float64 // reusable top-layer hidden-state gradients
}

// Arch describes a Network to construct: input feature count, hidden sizes
// of the LSTM stack, hidden sizes of the dense head, and output size.
type Arch struct {
	In          int
	LSTMHidden  []int
	DenseHidden []int
	Out         int
	HiddenAct   Activation // activation for dense hidden layers; default Tanh
}

// NewNetwork builds a Network from arch with weights drawn from rng.
func NewNetwork(arch Arch, rng *rand.Rand) *Network {
	if arch.In <= 0 || arch.Out <= 0 {
		panic(fmt.Sprintf("nn: invalid arch in=%d out=%d", arch.In, arch.Out))
	}
	if len(arch.LSTMHidden) == 0 {
		panic("nn: arch needs at least one recurrent layer")
	}
	hiddenAct := arch.HiddenAct
	if hiddenAct.F == nil {
		hiddenAct = Tanh
	}
	net := &Network{}
	in := arch.In
	for _, h := range arch.LSTMHidden {
		net.Recurrent = append(net.Recurrent, NewLSTM(in, h, rng))
		in = h
	}
	for _, h := range arch.DenseHidden {
		net.Head = append(net.Head, NewDense(in, h, hiddenAct, rng))
		in = h
	}
	net.Head = append(net.Head, NewDense(in, arch.Out, Identity, rng))
	return net
}

// Replicate returns a worker copy of the network: every layer shares the
// original's weight matrices read-only but owns private gradient
// accumulators and forward/backward workspaces, so replicas can run
// Forward/Backward concurrently over different examples.
func (n *Network) Replicate() *Network {
	r := &Network{}
	for _, l := range n.Recurrent {
		r.Recurrent = append(r.Recurrent, l.Replicate())
	}
	for _, d := range n.Head {
		r.Head = append(r.Head, d.Replicate())
	}
	return r
}

// InSize returns the expected per-timestep feature count.
func (n *Network) InSize() int { return n.Recurrent[0].In }

// OutSize returns the output vector length.
func (n *Network) OutSize() int { return n.Head[len(n.Head)-1].Out }

// Forward runs the network on one sequence (timesteps × features) and
// returns the output vector, caching activations for Backward.
func (n *Network) Forward(seq [][]float64) []float64 {
	if len(seq) == 0 {
		panic("nn: Forward on empty sequence")
	}
	n.lastSeqLen = len(seq)
	hidden := seq
	for _, l := range n.Recurrent {
		hidden = l.ForwardSeq(hidden)
	}
	out := hidden[len(hidden)-1]
	for _, d := range n.Head {
		out = d.Forward(out)
	}
	return out
}

// Backward accumulates gradients for the last Forward call given
// dOut = ∂L/∂output.
func (n *Network) Backward(dOut []float64) {
	if n.lastSeqLen == 0 {
		panic("nn: Backward before Forward")
	}
	grad := dOut
	for i := len(n.Head) - 1; i >= 0; i-- {
		grad = n.Head[i].Backward(grad)
	}
	// In seq-to-one mode only the final timestep of the top LSTM layer
	// receives loss gradient; each layer's per-timestep input gradient is
	// the hidden-state gradient of the layer below.
	hidden := n.Recurrent[len(n.Recurrent)-1].Hidden
	for len(n.dHTop) < n.lastSeqLen {
		n.dHTop = append(n.dHTop, make([]float64, hidden))
	}
	dH := n.dHTop[:n.lastSeqLen]
	for t := 0; t < n.lastSeqLen-1; t++ {
		zeroVec(dH[t])
	}
	copy(dH[n.lastSeqLen-1], grad)
	for i := len(n.Recurrent) - 1; i >= 0; i-- {
		dX := n.Recurrent[i].BackwardSeq(dH)
		if i > 0 {
			dH = dX
		}
	}
}

// Params returns every learnable parameter in the network.
func (n *Network) Params() []*Param {
	var out []*Param
	for _, l := range n.Recurrent {
		out = append(out, l.Params()...)
	}
	for _, d := range n.Head {
		out = append(out, d.Params()...)
	}
	return out
}

// NumParams returns the total scalar parameter count.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		r, c := p.W.Dims()
		total += r * c
	}
	return total
}
