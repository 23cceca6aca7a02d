package dsps

// Data-plane batching support: tuple arenas and batch-slice free lists.
// Together they make the steady-state emit/execute path allocation-free —
// tuples come out of chunked arenas (amortized one allocation per
// arenaChunk tuples) and the tuple batches that ride the rings and the
// []ackOp batches that ride the ack channels are recycled through free
// lists.

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
//dsps:allocs batch growth: free-listed slices retain capacity, append grows only on first fill
func (b *envBatch) add(t *Tuple, enqueuedNs int64) {
	b.tuples = append(b.tuples, t)
	b.ns = append(b.ns, enqueuedNs)
}

// size returns the number of tuples in the batch.
//
//dsps:hotpath
func (b envBatch) size() int { return len(b.tuples) }

// freeListCap bounds how many idle batch slices each free list retains;
// overflow is dropped to the GC.
const freeListCap = 256

// freeLists recycles the batch slices flowing through the data plane.
// Gets and puts are non-blocking channel operations,
// so they are safe from any goroutine and never alloc on the Put side
// (unlike sync.Pool, whose interface conversion boxes the payload).
type freeLists struct {
	envs chan envBatch
	acks chan []ackOp
}

func newFreeLists() *freeLists {
	return &freeLists{
		envs: make(chan envBatch, freeListCap),
		acks: make(chan []ackOp, freeListCap),
	}
}

// getEnvs returns an empty batch with at least its previous capacity,
// falling back to a fresh allocation of capHint.
//
//dsps:hotpath
//dsps:allocs free-list miss fallback: fresh batch slices only when the list runs dry
func (f *freeLists) getEnvs(capHint int) envBatch {
	select {
	case b := <-f.envs:
		return envBatch{tuples: b.tuples[:0], ns: b.ns[:0]}
	default:
		return envBatch{
			tuples: make([]*Tuple, 0, capHint),
			ns:     make([]int64, 0, capHint),
		}
	}
}

// putEnvs recycles a batch, clearing tuple pointers so a parked slice
// does not pin arena chunks.
//
//dsps:hotpath
func (f *freeLists) putEnvs(b envBatch) {
	if cap(b.tuples) == 0 {
		return
	}
	for i := range b.tuples {
		b.tuples[i] = nil
	}
	select {
	case f.envs <- b:
	default:
	}
}

// getAcks returns an empty op batch with at least its previous capacity,
// falling back to a fresh allocation of capHint.
//
//dsps:hotpath
//dsps:allocs free-list miss fallback: fresh ack slices only when the list runs dry
func (f *freeLists) getAcks(capHint int) []ackOp {
	select {
	case b := <-f.acks:
		return b[:0]
	default:
		return make([]ackOp, 0, capHint)
	}
}

// putAcks recycles an op batch. Ops hold no pointers, so nothing needs
// clearing.
//
//dsps:hotpath
func (f *freeLists) putAcks(b []ackOp) {
	if cap(b) == 0 {
		return
	}
	select {
	case f.acks <- b:
	default:
	}
}
