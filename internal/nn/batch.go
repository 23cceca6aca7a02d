package nn

import (
	"fmt"
	"math"
	"sync"

	"predstream/internal/mat"
)

// BatchOptions tunes a BatchRunner.
type BatchOptions struct {
	// PreScale, when set, maps each raw input feature row into the
	// workspace (dst and src have equal length). The serving path uses it
	// to apply the model's feature standardization during the gather step
	// instead of materializing a scaled copy of every window.
	PreScale func(dst, src []float64)
}

// BatchRunner evaluates a Network forward-only over micro-batches of
// sequences: each timestep of each layer is one GEMM over the whole batch
// (mat.MulMatTo) instead of one GEMV per sequence. Workspaces are pooled
// with sync.Pool, so Forward is safe for concurrent use as long as nothing
// trains the underlying network concurrently.
type BatchRunner struct {
	net  *Network
	opts BatchOptions
	pool sync.Pool // *batchWS
}

// NewBatchRunner returns a batched forward evaluator over net. The runner
// reads the network's weights only; it never mutates layer state, so many
// goroutines may call Forward concurrently.
func NewBatchRunner(net *Network, opts BatchOptions) *BatchRunner {
	r := &BatchRunner{net: net, opts: opts}
	r.pool.New = func() any { return &batchWS{} }
	return r
}

// buf is a grow-only float64 arena reshaped into matrices on demand.
type buf struct{ data []float64 }

// mat returns a rows×cols view over the buffer, growing it if needed. The
// view's contents are unspecified until written.
//
//dsps:allocs grow-only arena: reallocates only when a larger shape first appears
func (b *buf) mat(rows, cols int) *mat.Dense {
	n := rows * cols
	if cap(b.data) < n {
		b.data = make([]float64, n)
	}
	return mat.Wrap(rows, cols, b.data[:n])
}

// zeroMat returns a zeroed rows×cols view.
func (b *buf) zeroMat(rows, cols int) *mat.Dense {
	m := b.mat(rows, cols)
	m.Zero()
	return m
}

// batchWS is one pooled forward workspace: two timestep banks ping-ponged
// between layers plus per-step state and gate scratch. Buffers grow to the
// largest (batch, seqLen, layer width) seen and are then reused.
type batchWS struct {
	bank [2][]buf // [bank][timestep] activation matrices
	gate []buf    // per-gate pre-activation scratch
	st   []buf    // cell state scratch (h / c / tanh(c))
	head [2]buf   // dense head ping-pong
}

//dsps:allocs per-timestep buffer list grows once per longest-sequence change
func (w *batchWS) bankBuf(bank, t int) *buf {
	for len(w.bank[bank]) <= t {
		w.bank[bank] = append(w.bank[bank], buf{})
	}
	return &w.bank[bank][t]
}

//dsps:allocs gate buffer list grows once per layer-count change
func (w *batchWS) gateBuf(i int) *buf {
	for len(w.gate) <= i {
		w.gate = append(w.gate, buf{})
	}
	return &w.gate[i]
}

//dsps:allocs state buffer list grows once per layer-count change
func (w *batchWS) stBuf(i int) *buf {
	for len(w.st) <= i {
		w.st = append(w.st, buf{})
	}
	return &w.st[i]
}

// Forward runs the network over a batch of sequences and writes the output
// vector for sequence i into dst[i]. Every sequence must have the same
// length and the network's input feature count per timestep; dst must hold
// len(seqs) slices of the network's output size. Results are bitwise
// identical to calling Network.Forward per sequence in inference mode.
func (r *BatchRunner) Forward(seqs [][][]float64, dst [][]float64) error {
	B := len(seqs)
	if B == 0 {
		return fmt.Errorf("nn: batch forward on empty batch")
	}
	if len(dst) != B {
		return fmt.Errorf("nn: batch forward got %d outputs for %d sequences", len(dst), B)
	}
	T := len(seqs[0])
	if T == 0 {
		return fmt.Errorf("nn: batch forward on empty sequence")
	}
	in := r.net.InSize()
	out := r.net.OutSize()
	for b, seq := range seqs {
		if len(seq) != T {
			return fmt.Errorf("nn: batch sequence %d has %d steps, want %d", b, len(seq), T)
		}
		for t, row := range seq {
			if len(row) != in {
				return fmt.Errorf("nn: batch sequence %d step %d has %d features, want %d", b, t, len(row), in)
			}
		}
		if len(dst[b]) != out {
			return fmt.Errorf("nn: batch output %d has %d elements, want %d", b, len(dst[b]), out)
		}
	}

	ws := r.pool.Get().(*batchWS)
	defer r.pool.Put(ws)

	// Gather (and optionally pre-scale) the input into bank 0.
	cur := 0
	for t := 0; t < T; t++ {
		x := ws.bankBuf(cur, t).mat(B, in)
		for b := 0; b < B; b++ {
			row := x.Data()[b*in : (b+1)*in]
			if r.opts.PreScale != nil {
				r.opts.PreScale(row, seqs[b][t])
			} else {
				copy(row, seqs[b][t])
			}
		}
	}

	for _, l := range r.net.Recurrent {
		next := 1 - cur
		lstmForwardBatch(l, ws, cur, next, B, T)
		cur = next
	}

	// Dense head on the final timestep's hidden state.
	h := ws.bankBuf(cur, T-1).mat(B, r.net.Recurrent[len(r.net.Recurrent)-1].Hidden)
	ping := 0
	for _, d := range r.net.Head {
		y := ws.head[ping].mat(B, d.Out)
		d.w.W.MulMatTo(y, h)
		addBiasRows(y, d.b.W.Data())
		if d.Act.Name != "identity" {
			applyVec(y.Data(), d.Act.F)
		}
		h = y
		ping = 1 - ping
	}
	for b := 0; b < B; b++ {
		copy(dst[b], h.Data()[b*out:(b+1)*out])
	}
	return nil
}

// lstmForwardBatch runs one LSTM layer over the batched sequence in bank
// cur, leaving the per-timestep hidden states in bank next.
//
//dsps:hotpath
func lstmForwardBatch(l *LSTM, ws *batchWS, cur, next, B, T int) {
	hPrev := ws.stBuf(0).zeroMat(B, l.Hidden)
	cPrev := ws.stBuf(1).zeroMat(B, l.Hidden)
	c := ws.stBuf(2).mat(B, l.Hidden)
	tanhC := ws.stBuf(3).mat(B, l.Hidden)
	for t := 0; t < T; t++ {
		x := ws.bankBuf(cur, t).mat(B, l.In)
		var z [numGates]*mat.Dense
		for g := 0; g < numGates; g++ {
			z[g] = ws.gateBuf(g).mat(B, l.Hidden)
			l.wx[g].W.MulMatTo(z[g], x)
			l.wh[g].W.MulMatAdd(z[g], hPrev)
			addBiasRows(z[g], l.b[g].W.Data())
		}
		sigmoidVec(z[gateF].Data())
		sigmoidVec(z[gateI].Data())
		tanhVec(z[gateG].Data())
		sigmoidVec(z[gateO].Data())
		h := ws.bankBuf(next, t).mat(B, l.Hidden)
		fd, id, gd, od := z[gateF].Data(), z[gateI].Data(), z[gateG].Data(), z[gateO].Data()
		cd, cp, tc, hd := c.Data(), cPrev.Data(), tanhC.Data(), h.Data()
		for i := range cd {
			cd[i] = fd[i]*cp[i] + id[i]*gd[i]
		}
		tanhVecTo(tc, cd)
		for i := range hd {
			hd[i] = od[i] * tc[i]
		}
		hPrev = h
		c, cPrev = cPrev, c
	}
}

// addBiasRows adds the bias vector b (len = m.Cols) to every row of m.
//
//dsps:hotpath
func addBiasRows(m *mat.Dense, b []float64) {
	data := m.Data()
	cols := m.Cols()
	for r := 0; r < m.Rows(); r++ {
		row := data[r*cols : (r+1)*cols]
		for i := range row {
			row[i] += b[i]
		}
	}
}

// applyVec applies f to every element of xs in place.
func applyVec(xs []float64, f func(float64) float64) {
	for i, x := range xs {
		xs[i] = f(x)
	}
}

// tanhVecTo writes tanh(src) into dst element-wise.
func tanhVecTo(dst, src []float64) {
	for i, x := range src {
		dst[i] = math.Tanh(x)
	}
}
