package nn

import (
	"math/rand"
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
	main   *Network
	params []*Param
	loss   Loss

	replicas  []*Network
	repParams [][]*Param
	repRngs   []*rand.Rand

	dropout  bool
	baseSeed int64

	mu   sync.Mutex
	free []gradBuf

	slots     []gradBuf
	lossSlots []float64
}

// newEngine builds an executor with `workers` replicas of net. When
// dropout is set, each replica gets a private rng that is reseeded per
// example from (baseSeed, epoch, position), keeping masks independent of
// the worker that happens to process the example.
func newEngine(net *Network, loss Loss, workers int, baseSeed int64, dropout bool) *engine {
	if workers < 1 {
		workers = 1
	}
	e := &engine{
		main:     net,
		params:   net.Params(),
		loss:     loss,
		dropout:  dropout,
		baseSeed: baseSeed,
	}
	for w := 0; w < workers; w++ {
		rep := net.Replicate()
		var rng *rand.Rand
		if dropout {
			rng = rand.New(&splitmixSource{})
			rep.SetTraining(true, rng)
		}
		e.replicas = append(e.replicas, rep)
		e.repParams = append(e.repParams, rep.Params())
		e.repRngs = append(e.repRngs, rng)
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
// order. epochPos is the position of idxs[0] within the epoch (used for
// dropout seeding). It returns the summed loss over the batch.
func (e *engine) runBatch(data Dataset, idxs []int, epoch, epochPos int) float64 {
	n := len(idxs)
	if cap(e.slots) < n {
		e.slots = make([]gradBuf, n)
	}
	slots := e.slots[:n]
	losses := e.lossBuf(n)
	workers := len(e.replicas)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Inline path: no goroutine round-trips when there is nothing to
		// overlap (one worker, or a one-example batch).
		for k := 0; k < n; k++ {
			e.runExample(0, k, slots, losses, data, idxs, epoch, epochPos)
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
					e.runExample(w, k, slots, losses, data, idxs, epoch, epochPos)
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
func (e *engine) runExample(w, k int, slots []gradBuf, losses []float64, data Dataset, idxs []int, epoch, epochPos int) {
	buf := e.acquire()
	for i, p := range e.repParams[w] {
		p.Grad = buf[i]
	}
	if e.dropout {
		e.repRngs[w].Seed(exampleSeed(e.baseSeed, epoch, epochPos+k))
	}
	rep := e.replicas[w]
	idx := idxs[k]
	pred := rep.Forward(data.X[idx])
	losses[k] = e.loss.Value(pred, data.Y[idx])
	rep.Backward(e.loss.Grad(pred, data.Y[idx]))
	slots[k] = buf
}

// evaluate returns the mean loss over data with the replicas in inference
// mode, summing per-example losses in index order so the result matches
// a serial one-example-at-a-time sum bitwise.
func (e *engine) evaluate(data *Dataset) float64 {
	n := data.Len()
	losses := e.lossBuf(n)
	if e.dropout {
		for _, rep := range e.replicas {
			rep.SetTraining(false, nil)
		}
		defer func() {
			for w, rep := range e.replicas {
				rep.SetTraining(true, e.repRngs[w])
			}
		}()
	}
	workers := len(e.replicas)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			losses[k] = e.loss.Value(e.replicas[0].Forward(data.X[k]), data.Y[k])
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
					losses[k] = e.loss.Value(e.replicas[w].Forward(data.X[k]), data.Y[k])
				}
			}(w)
		}
		wg.Wait()
	}
	var total float64
	for _, l := range losses {
		total += l
	}
	return total / float64(n)
}

// lossBuf returns the reusable per-position loss slice grown to n.
func (e *engine) lossBuf(n int) []float64 {
	if cap(e.lossSlots) < n {
		e.lossSlots = make([]float64, n)
	}
	return e.lossSlots[:n]
}

// splitmixSource is a SplitMix64 rand.Source64. Unlike the stdlib source
// (whose Seed reinitializes a 607-word feedback register), reseeding is a
// single store, which the engine does once per example for dropout masks.
type splitmixSource struct{ state uint64 }

func (s *splitmixSource) Seed(seed int64) { s.state = uint64(seed) }

func (s *splitmixSource) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	z := s.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (s *splitmixSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// exampleSeed derives the dropout seed for the example at `pos` within an
// epoch. It depends only on (baseSeed, epoch, pos) — never on which worker
// runs the example — so masks are identical for any worker count.
func exampleSeed(baseSeed int64, epoch, pos int) int64 {
	z := uint64(baseSeed) ^ (uint64(epoch)+1)*0x9E3779B97F4A7C15 ^ (uint64(pos)+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}
