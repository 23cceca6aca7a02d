package nn

import (
	"fmt"
	"math"
	"math/rand"

	"predstream/internal/mat"
)

// Gate indices into the LSTM parameter arrays.
const (
	gateF = iota // forget
	gateI        // input
	gateG        // candidate
	gateO        // output
	numGates
)

var gateNames = [numGates]string{"f", "i", "g", "o"}

// lstmStep caches everything one timestep's backward pass needs. Every
// slice is owned by the layer workspace and reused across sequences; the
// previous hidden/cell state is read from the preceding step's buffers
// instead of being copied.
type lstmStep struct {
	x     []float64
	gates [numGates][]float64 // post-activation gate values
	c     []float64
	tanhC []float64
	h     []float64

	dz [numGates][]float64 // pre-activation gradients, written by BackwardSeq
}

// lstmWorkspace is the layer's reusable arena: the step cache grows once
// to the longest sequence seen, and the per-timestep scratch vectors are
// sized from the hidden dimension at construction, so steady-state
// ForwardSeq/BackwardSeq allocate nothing.
type lstmWorkspace struct {
	steps []lstmStep  // cap grows to the max sequence length seen
	n     int         // timesteps cached by the last ForwardSeq
	out   [][]float64 // ForwardSeq return headers, aliasing step.h
	dX    [][]float64 // BackwardSeq return headers + reused buffers

	zero []float64 // all-zero initial hidden/cell state, read-only

	// Backward scratch, one vector of Hidden each.
	dh, do_, dc, dcPrev, dhPrev, dhNext, dcNext []float64
}

func (w *lstmWorkspace) init(hidden int) {
	w.zero = make([]float64, hidden)
	w.dh = make([]float64, hidden)
	w.do_ = make([]float64, hidden)
	w.dc = make([]float64, hidden)
	w.dcPrev = make([]float64, hidden)
	w.dhPrev = make([]float64, hidden)
	w.dhNext = make([]float64, hidden)
	w.dcNext = make([]float64, hidden)
}

// ensure grows the step cache to hold n timesteps for dims (in, hidden).
//
//dsps:allocs workspace grown once per shape change; steady-state sequences reuse cached steps
func (w *lstmWorkspace) ensure(in, hidden, n int) {
	for len(w.steps) < n {
		st := lstmStep{
			x:     make([]float64, in),
			c:     make([]float64, hidden),
			tanhC: make([]float64, hidden),
			h:     make([]float64, hidden),
		}
		for g := 0; g < numGates; g++ {
			st.gates[g] = make([]float64, hidden)
			st.dz[g] = make([]float64, hidden)
		}
		w.steps = append(w.steps, st)
		w.dX = append(w.dX, make([]float64, in))
	}
	if cap(w.out) < n {
		w.out = make([][]float64, n)
	}
	w.out = w.out[:n]
	w.n = n
}

// hPrev returns the hidden state step t started from: the zero state for
// the first step.
func (w *lstmWorkspace) hPrev(t int) []float64 {
	if t == 0 {
		return w.zero
	}
	return w.steps[t-1].h
}

// LSTM is a single recurrent layer with standard LSTM cell dynamics and
// truncated-BPTT training over whole sequences. Like Dense, one instance
// handles one sequence at a time; Replicate produces weight-sharing
// copies for concurrent mini-batch workers.
type LSTM struct {
	In, Hidden int

	wx [numGates]*Param // Hidden×In input weights per gate
	wh [numGates]*Param // Hidden×Hidden recurrent weights per gate
	b  [numGates]*Param // Hidden×1 biases per gate

	ws lstmWorkspace
}

// NewLSTM builds an LSTM layer with Xavier-initialized weights. The forget
// gate bias starts at 1 (the standard trick that keeps early memory open).
func NewLSTM(in, hidden int, rng *rand.Rand) *LSTM {
	if in <= 0 || hidden <= 0 {
		panic(fmt.Sprintf("nn: invalid lstm dims %d->%d", in, hidden))
	}
	l := &LSTM{In: in, Hidden: hidden}
	for g := 0; g < numGates; g++ {
		l.wx[g] = newParam("lstm.wx."+gateNames[g], mat.New(hidden, in).RandXavier(rng))
		l.wh[g] = newParam("lstm.wh."+gateNames[g], mat.New(hidden, hidden).RandXavier(rng))
		bias := mat.New(hidden, 1)
		if g == gateF {
			bias.Fill(1)
		}
		l.b[g] = newParam("lstm.b."+gateNames[g], bias)
	}
	l.ws.init(hidden)
	return l
}

// Replicate returns a copy for concurrent mini-batch workers: the replica
// shares the weight matrices (read-only during concurrent forward/backward)
// but owns its gradients and workspace.
func (l *LSTM) Replicate() *LSTM {
	r := &LSTM{In: l.In, Hidden: l.Hidden}
	for g := 0; g < numGates; g++ {
		r.wx[g] = l.wx[g].shareWeights()
		r.wh[g] = l.wh[g].shareWeights()
		r.b[g] = l.b[g].shareWeights()
	}
	r.ws.init(l.Hidden)
	return r
}

// ForwardSeq runs the layer over a sequence of input vectors starting from
// zero state, returning the hidden state at every timestep. The returned
// slices alias the layer workspace and stay valid until the next
// ForwardSeq call on this instance.
//
//dsps:hotpath
func (l *LSTM) ForwardSeq(seq [][]float64) [][]float64 {
	w := &l.ws
	w.ensure(l.In, l.Hidden, len(seq))
	h, c := w.zero, w.zero
	for t, x := range seq {
		if len(x) != l.In {
			panic(fmt.Sprintf("nn: lstm step %d got %d inputs, want %d", t, len(x), l.In))
		}
		st := &w.steps[t]
		copy(st.x, x)
		for g := 0; g < numGates; g++ {
			zg := st.gates[g]
			l.wx[g].W.MulVecTo(zg, st.x)
			l.wh[g].W.MulVecAdd(zg, h)
			bd := l.b[g].W.Data()
			for i := range zg {
				zg[i] += bd[i]
			}
		}
		f, in, gg, o := st.gates[gateF], st.gates[gateI], st.gates[gateG], st.gates[gateO]
		sigmoidVec(f)
		sigmoidVec(in)
		tanhVec(gg)
		sigmoidVec(o)
		for i := range st.c {
			st.c[i] = f[i]*c[i] + in[i]*gg[i]
		}
		for i := range st.tanhC {
			st.tanhC[i] = math.Tanh(st.c[i])
		}
		for i := range st.h {
			st.h[i] = o[i] * st.tanhC[i]
		}
		h, c = st.h, st.c
		w.out[t] = st.h
	}
	return w.out
}

// BackwardSeq backpropagates through the cached sequence. dH holds
// ∂L/∂h_t for every timestep (zero vectors where the loss does not touch a
// step). It accumulates parameter gradients and returns ∂L/∂x_t per step;
// the returned slices alias the workspace and stay valid until the next
// BackwardSeq call.
//
// The time loop computes each step's gate gradients dz_t and pushes them
// back through the transposed weights; the weight-gradient outer products,
// which depend on nothing later, run once after it (accumulateGrads).
//
//dsps:hotpath
func (l *LSTM) BackwardSeq(dH [][]float64) [][]float64 {
	w := &l.ws
	if len(dH) != w.n {
		panic(fmt.Sprintf("nn: lstm backward got %d grads for %d cached steps", len(dH), w.n))
	}
	dhNext, dcNext := w.dhNext, w.dcNext
	dhPrev, dcPrev := w.dhPrev, w.dcPrev
	zeroVec(dhNext)
	zeroVec(dcNext)
	for t := w.n - 1; t >= 0; t-- {
		st := &w.steps[t]
		cPrev := w.zero
		if t > 0 {
			cPrev = w.steps[t-1].c
		}
		dh := w.dh
		for i := range dh {
			dh[i] = dH[t][i] + dhNext[i]
		}
		f, in, gg, o := st.gates[gateF], st.gates[gateI], st.gates[gateG], st.gates[gateO]

		// Through h = o ∘ tanh(c).
		do := w.do_
		dc := w.dc
		for i := range dh {
			do[i] = dh[i] * st.tanhC[i]
			dc[i] = dh[i]*o[i]*(1-st.tanhC[i]*st.tanhC[i]) + dcNext[i]
		}
		// Through c = f∘cPrev + i∘g.
		dz := &st.dz
		for i := range dc {
			dcPrev[i] = dc[i] * f[i]
			dz[gateF][i] = dc[i] * cPrev[i] * f[i] * (1 - f[i])
			dz[gateI][i] = dc[i] * gg[i] * in[i] * (1 - in[i])
			dz[gateG][i] = dc[i] * in[i] * (1 - gg[i]*gg[i])
			dz[gateO][i] = do[i] * o[i] * (1 - o[i])
		}

		// dx = Σ_g Wxᵀ dz_g, dhPrev = Σ_g Whᵀ dz_g.
		dx := w.dX[t]
		zeroVec(dx)
		zeroVec(dhPrev)
		for g := 0; g < numGates; g++ {
			addMulTransVec(dx, l.wx[g].W.Data(), dz[g])
			addMulTransVec(dhPrev, l.wh[g].W.Data(), dz[g])
		}
		dhNext, dhPrev = dhPrev, dhNext
		dcNext, dcPrev = dcPrev, dcNext
	}
	l.accumulateGrads()
	return w.dX[:w.n]
}

// accumulateGrads adds the cached sequence's weight gradients: dWx += dz xᵀ,
// dWh += dz hPrevᵀ and db += dz, summed over t = n-1 … 0. Each gradient row
// takes four timesteps per pass and holds its running value in a register,
// so it is loaded and stored once per four steps instead of once per step.
// Every element still receives one rounded add per timestep in descending
// t, the order the per-step loop used, so the sums are bit-identical.
//
//dsps:hotpath
func (l *LSTM) accumulateGrads() {
	w := &l.ws
	for g := 0; g < numGates; g++ {
		gx, gh, gb := l.wx[g].Grad.Data(), l.wh[g].Grad.Data(), l.b[g].Grad.Data()
		for i := 0; i < l.Hidden; i++ {
			rx := gx[i*l.In:][:l.In]
			rh := gh[i*l.Hidden:][:l.Hidden]
			b := gb[i]
			t := w.n - 1
			for ; t >= 3; t -= 4 {
				s0, s1, s2, s3 := &w.steps[t], &w.steps[t-1], &w.steps[t-2], &w.steps[t-3]
				d0, d1, d2, d3 := s0.dz[g][i], s1.dz[g][i], s2.dz[g][i], s3.dz[g][i]
				addOuter4(rx, d0, d1, d2, d3, s0.x, s1.x, s2.x, s3.x)
				addOuter4(rh, d0, d1, d2, d3, w.hPrev(t), w.hPrev(t-1), w.hPrev(t-2), w.hPrev(t-3))
				b += d0
				b += d1
				b += d2
				b += d3
			}
			for ; t >= 0; t-- {
				st := &w.steps[t]
				d := st.dz[g][i]
				addOuter1(rx, d, st.x)
				addOuter1(rh, d, w.hPrev(t))
				b += d
			}
			gb[i] = b
		}
	}
}

// addMulTransVec computes dst += Wᵀ d for the row-major len(d)×len(dst)
// matrix w, four rows per pass. Each dst[j] takes its adds in row order,
// as a row-at-a-time loop gives them.
//
//dsps:hotpath
func addMulTransVec(dst, w, d []float64) {
	n := len(dst)
	i := 0
	for ; i+4 <= len(d); i += 4 {
		d0, d1, d2, d3 := d[i], d[i+1], d[i+2], d[i+3]
		w0 := w[i*n:][:n]
		w1 := w[(i+1)*n:][:n]
		w2 := w[(i+2)*n:][:n]
		w3 := w[(i+3)*n:][:n]
		for j, v := range dst {
			v += w0[j] * d0
			v += w1[j] * d1
			v += w2[j] * d2
			v += w3[j] * d3
			dst[j] = v
		}
	}
	for ; i < len(d); i++ {
		addOuter1(dst, d[i], w[i*n:][:n])
	}
}

// addOuter4 computes row += d0·a0 + d1·a1 + d2·a2 + d3·a3, adding the four
// terms of each element in that order.
//
//dsps:hotpath
func addOuter4(row []float64, d0, d1, d2, d3 float64, a0, a1, a2, a3 []float64) {
	n := len(row)
	a0, a1, a2, a3 = a0[:n], a1[:n], a2[:n], a3[:n]
	for j, v := range row {
		v += d0 * a0[j]
		v += d1 * a1[j]
		v += d2 * a2[j]
		v += d3 * a3[j]
		row[j] = v
	}
}

// addOuter1 computes row += d·a.
//
//dsps:hotpath
func addOuter1(row []float64, d float64, a []float64) {
	a = a[:len(row)]
	for j, v := range a {
		row[j] += d * v
	}
}

// Params returns all learnable parameters of the layer.
func (l *LSTM) Params() []*Param {
	out := make([]*Param, 0, 3*numGates)
	for g := 0; g < numGates; g++ {
		out = append(out, l.wx[g], l.wh[g], l.b[g])
	}
	return out
}

// Weights exposes the per-gate weights for serialization in gate order
// f, i, g, o: input weights, recurrent weights, biases.
func (l *LSTM) Weights() (wx, wh, b []*mat.Dense) {
	for g := 0; g < numGates; g++ {
		wx = append(wx, l.wx[g].W)
		wh = append(wh, l.wh[g].W)
		b = append(b, l.b[g].W)
	}
	return wx, wh, b
}

// SetWeights replaces the layer's weights from the serialized form.
func (l *LSTM) SetWeights(wx, wh, b []*mat.Dense) error {
	if err := checkLSTMShapes(l.In, l.Hidden, wx, wh, b); err != nil {
		return err
	}
	for g := 0; g < numGates; g++ {
		l.wx[g].W = wx[g].Copy()
		l.wh[g].W = wh[g].Copy()
		l.b[g].W = b[g].Copy()
		l.wx[g].Grad = mat.New(l.Hidden, l.In)
		l.wh[g].Grad = mat.New(l.Hidden, l.Hidden)
		l.b[g].Grad = mat.New(l.Hidden, 1)
	}
	return nil
}

// checkLSTMShapes reports whether wx, wh and b hold one in→hidden LSTM
// layer's weights in the form Weights returns them.
func checkLSTMShapes(in, hidden int, wx, wh, b []*mat.Dense) error {
	if len(wx) != numGates || len(wh) != numGates || len(b) != numGates {
		return fmt.Errorf("nn: lstm weights need %d matrices per group", numGates)
	}
	for g := 0; g < numGates; g++ {
		if r, c := wx[g].Dims(); r != hidden || c != in {
			return fmt.Errorf("nn: lstm wx[%d] is %dx%d, want %dx%d", g, r, c, hidden, in)
		}
		if r, c := wh[g].Dims(); r != hidden || c != hidden {
			return fmt.Errorf("nn: lstm wh[%d] is %dx%d, want %dx%d", g, r, c, hidden, hidden)
		}
		if r, c := b[g].Dims(); r != hidden || c != 1 {
			return fmt.Errorf("nn: lstm b[%d] is %dx%d, want %dx1", g, r, c, hidden)
		}
	}
	return nil
}

// sigmoidVec applies the logistic function to xs in place; tanhVec the
// hyperbolic tangent. Plain loops (no closure dispatch, no output
// allocation) keep the per-timestep cell math allocation-free.
func sigmoidVec(xs []float64) {
	for i, x := range xs {
		xs[i] = 1 / (1 + math.Exp(-x))
	}
}

func tanhVec(xs []float64) {
	for i, x := range xs {
		xs[i] = math.Tanh(x)
	}
}

func zeroVec(xs []float64) {
	for i := range xs {
		xs[i] = 0
	}
}
