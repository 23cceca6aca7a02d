package dsps

// Data-plane batching support: tuple arenas and tuple batches. Together
// with the rings they make the steady-state emit/execute path
// allocation-free — tuples come out of chunked arenas (amortized one
// allocation per arenaChunk tuples), and a batch's buffers go back to
// their producer through the ring they came by (see ringplane.go), so a
// producer refills from what its consumers emptied.

// arenaChunk is how many Tuples a tupleArena allocates at once.
const arenaChunk = 256

// tupleArena hands out Tuples from a chunk, never reusing one: bolts may
// legally retain *Tuple past Execute (anchoring, windowing), so individual
// tuples cannot be recycled. Chunking still amortizes the allocation to
// 1/arenaChunk per tuple, and a retained tuple merely keeps its chunk
// alive until the GC collects it. Owned by a single executor goroutine.
type tupleArena struct {
	chunk []Tuple
	next  int
}

// get returns a zeroed *Tuple; the caller initializes every field it
// needs.
//
//dsps:hotpath
//dsps:allocs arena refill: one chunk allocation amortized over arenaChunk tuples
func (a *tupleArena) get() *Tuple {
	if a.next == len(a.chunk) {
		a.chunk = make([]Tuple, arenaChunk)
		a.next = 0
	}
	t := &a.chunk[a.next]
	a.next++
	return t
}

// envBatch is a struct-of-arrays batch of tuples in transit: a dense
// array of tuple pointers and a parallel array of their (coarse-clock)
// enqueue timestamps. The SoA split keeps the hand-off payload two flat
// arrays — the consumer walks tuples and timestamps as independent
// streams, and a batch header is just two slice headers, small enough to
// ride an SPSC ring slot by value.
type envBatch struct {
	tuples []*Tuple
	ns     []int64
}

// add appends one tuple to the batch.
//
//dsps:hotpath
//dsps:allocs batch growth: recycled buffers retain capacity, append grows only on first fill
func (b *envBatch) add(t *Tuple, enqueuedNs int64) {
	b.tuples = append(b.tuples, t)
	b.ns = append(b.ns, enqueuedNs)
}

// size returns the number of tuples in the batch.
//
//dsps:hotpath
func (b envBatch) size() int { return len(b.tuples) }

// newEnvBatch allocates an empty batch for a producer whose rings have no
// emptied buffer to give back yet: a ring's first batches, or a burst
// deeper than any before it.
//
//dsps:allocs ring warm-up: fresh batch slices only until the ring's buffers circulate
func newEnvBatch(capHint int) envBatch {
	return envBatch{
		tuples: make([]*Tuple, 0, capHint),
		ns:     make([]int64, 0, capHint),
	}
}

// emptied clears b's tuple pointers, so that a buffer its producer keeps
// for later pins no arena chunk, and returns it empty with its capacity.
//
//dsps:hotpath
func (b envBatch) emptied() envBatch {
	clear(b.tuples)
	return envBatch{tuples: b.tuples[:0], ns: b.ns[:0]}
}
