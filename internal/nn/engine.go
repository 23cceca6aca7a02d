package nn

import (
	"sync"
	"sync/atomic"

	"predstream/internal/mat"
)

// This file implements the data-parallel mini-batch executor behind Train.
//
// N worker replicas share the main network's weight matrices read-only;
// each owns private gradient accumulators and layer workspaces. Examples of
// a mini-batch are pulled from a shared counter, and every example writes
// its gradients into a dedicated pooled buffer. After the batch the buffers
// are reduced into the main parameters strictly in example order, and
// per-example losses are summed in position order, so the result is
// bitwise-identical for any worker count (see DESIGN.md, "Training
// engine").

// gradBuf holds one example's gradients, one tensor per parameter in
// Params() order.
type gradBuf []*mat.Dense

type engine struct {
	params []*Param
	loss   Loss

	replicas  []*Network
	repParams [][]*Param

	mu   sync.Mutex
	free []gradBuf

	slots     []gradBuf
	lossSlots []float64
}

// newEngine builds an executor with `workers` replicas of net.
func newEngine(net *Network, loss Loss, workers int) *engine {
	if workers < 1 {
		workers = 1
	}
	e := &engine{
		params: net.Params(),
		loss:   loss,
	}
	for w := 0; w < workers; w++ {
		rep := net.Replicate()
		e.replicas = append(e.replicas, rep)
		e.repParams = append(e.repParams, rep.Params())
	}
	return e
}

func (e *engine) newGradBuf() gradBuf {
	buf := make(gradBuf, len(e.params))
	for i, p := range e.params {
		r, c := p.W.Dims()
		buf[i] = mat.New(r, c)
	}
	return buf
}

// acquire pops a zeroed gradient buffer from the pool, allocating on miss.
func (e *engine) acquire() gradBuf {
	e.mu.Lock()
	if n := len(e.free); n > 0 {
		b := e.free[n-1]
		e.free = e.free[:n-1]
		e.mu.Unlock()
		return b
	}
	e.mu.Unlock()
	return e.newGradBuf()
}

// release zeroes b and returns it to the pool.
func (e *engine) release(b gradBuf) {
	for _, g := range b {
		g.Zero()
	}
	e.mu.Lock()
	e.free = append(e.free, b)
	e.mu.Unlock()
}

// runBatch runs Forward/Backward for data[idxs] across the replicas and
// reduces the per-example gradients into the main parameters in example
// order. It returns the summed loss over the batch.
func (e *engine) runBatch(data Dataset, idxs []int) float64 {
	n := len(idxs)
	if cap(e.slots) < n {
		e.slots = make([]gradBuf, n)
	}
	slots := e.slots[:n]
	if cap(e.lossSlots) < n {
		e.lossSlots = make([]float64, n)
	}
	losses := e.lossSlots[:n]
	workers := len(e.replicas)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Inline path: no goroutine round-trips when there is nothing to
		// overlap (one worker, or a one-example batch).
		for k := 0; k < n; k++ {
			e.runExample(0, k, slots, losses, data, idxs)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					k := int(next.Add(1)) - 1
					if k >= n {
						return
					}
					e.runExample(w, k, slots, losses, data, idxs)
				}
			}(w)
		}
		wg.Wait()
	}
	var total float64
	for k := 0; k < n; k++ {
		for i, g := range slots[k] {
			e.params[i].Grad.AddInPlace(g)
		}
		e.release(slots[k])
		slots[k] = nil
		total += losses[k]
	}
	return total
}

// runExample processes batch position k on replica w: gradients go into a
// pooled buffer (the replica's Param.Grad pointers are swapped to it, no
// copying) and the loss into losses[k].
func (e *engine) runExample(w, k int, slots []gradBuf, losses []float64, data Dataset, idxs []int) {
	buf := e.acquire()
	for i, p := range e.repParams[w] {
		p.Grad = buf[i]
	}
	rep := e.replicas[w]
	idx := idxs[k]
	pred := rep.Forward(data.X[idx])
	losses[k] = e.loss.Value(pred, data.Y[idx])
	rep.Backward(e.loss.Grad(pred, data.Y[idx]))
	slots[k] = buf
}
