package dsps

import (
	"sync"
	"sync/atomic"

	"predstream/internal/ring"
)

// The data plane: every producer→bolt and every bolt→spout (ack)
// hand-off is a dedicated bounded SPSC ring, attached lazily on first send
// and kept for the consumer's lifetime. A bolt round-robins across its
// rings and parks on its waiter when all run dry. Backpressure is the
// tuple-denominated reserve()/release() CAS bound, enforced before any
// push. A batch's buffers go back to their producer through the ring they
// came by: the bolt processes the batch in its slot (Peek), releases the
// slot (Advance), and the producer takes the buffers back out of it
// (Reclaim) for its next batch.
//
// SPSC ownership discipline (enforced by dspslint's ringmisuse
// analyzer): a ring's push and reclaim side belongs to its producer's
// executor goroutine, its pop side to its consumer's. Retirement transfers
// a retired bolt's sides to the retiring goroutine only after the previous
// owners have provably exited (ScaleDown's awaitProducers/awaitDone
// barriers).

// attachRing appends e to a copy-on-write ring list. mu orders concurrent
// attaches against each other and against the consumer's prunes.
//
//dsps:coldpath
func attachRing[E any](mu *sync.Mutex, list *atomic.Pointer[[]E], e E) {
	mu.Lock()
	old := *list.Load()
	next := make([]E, len(old)+1)
	copy(next, old)
	next[len(old)] = e
	list.Store(&next)
	mu.Unlock()
}

// pruneRings drops the entries stale reports from a copy-on-write ring
// list: closed, drained rings whose producer was scaled down. Cold path,
// called only when the consumer is about to wait.
func pruneRings[E any](mu *sync.Mutex, list *atomic.Pointer[[]E], stale func(E) bool) {
	n := 0
	for _, e := range *list.Load() {
		if stale(e) {
			n++
		}
	}
	if n == 0 {
		return
	}
	mu.Lock()
	cur := *list.Load()
	next := make([]E, 0, len(cur))
	for _, e := range cur {
		if !stale(e) {
			next = append(next, e)
		}
	}
	list.Store(&next)
	mu.Unlock()
}

// attachInRingLocked creates a producer ring and splices it into
// target's consumer list. The caller holds the topology splice read lock
// and has observed target alive, so the list cannot be concurrently
// reclaimed. Reserved tuples never exceed QueueSize and every queued
// batch holds at least one, and the bolt holds one more slot while it
// processes a batch in place, so QueueSize+1 slots never refuse a
// reserved push.
//
//dsps:coldpath
func (rt *runningTopology) attachInRingLocked(target *task) *ring.SPSC[envBatch] {
	r, _ := ring.New[envBatch](rt.cfg.QueueSize + 1)
	attachRing(&target.ringMu, &target.inRings, r)
	return r
}

// drainInRings takes at most one batch from every input ring (round-robin
// fairness across producers): it releases the batch's queue reservation,
// runs every tuple through the bolt in the batch's slot, clears the tuple
// pointers, so that the buffer pins no arena chunk on its way back, and
// releases the slot to the producer's Reclaim. Returns the number of
// tuples handled and false when the topology shut down mid-batch.
//
//dsps:hotpath
//dsps:ringconsumer
func (rt *runningTopology) drainInRings(tk *task, collector *boltCollector) (int, bool) {
	total := 0
	for _, r := range *tk.inRings.Load() {
		b, ok := r.Peek()
		if !ok {
			continue
		}
		tk.release(int64(b.size()))
		for i, tpl := range b.tuples {
			if !rt.processTuple(tk, collector, tpl, b.ns[i]) {
				return total, false
			}
		}
		total += b.size()
		clear(b.tuples)
		r.Advance()
	}
	return total, true
}

// ringsEmpty reports whether no element waits on any ring of a list.
func ringsEmpty[T any](rings []*ring.SPSC[T]) bool {
	for _, r := range rings {
		if !r.Empty() {
			return false
		}
	}
	return true
}

// staleRing reports a ring whose producer was scaled down and whose last
// element has been taken.
func staleRing[T any](r *ring.SPSC[T]) bool { return r.Closed() && r.Empty() }

// ringDepth sums the buffered batches across tk's input rings, exported
// as predstream_ring_depth.
func (tk *task) ringDepth() int {
	total := 0
	for _, r := range *tk.inRings.Load() {
		total += r.Len()
	}
	return total
}

// ackDrainBatches bounds one drainAcks call, in batches of effBatch ops,
// so that a flood of ops cannot keep a spout from its loop top.
const ackDrainBatches = 64

// attachAckRing creates a bolt's ack ring to the spout sp and splices it
// into sp's list. It holds MaxSpoutPending ops.
//
//dsps:coldpath
func (rt *runningTopology) attachAckRing(sp *task) *ring.SPSC[ackOp] {
	r, _ := ring.New[ackOp](rt.cfg.MaxSpoutPending)
	attachRing(&sp.ringMu, &sp.ackRings, r)
	return r
}

// drainAcks applies the ops on the spout tk's ack rings, effBatch per ring
// per round so that no ring starves another, up to ackDrainBatches
// batches per call; what is left stays flagged. The ops-pending word is
// cleared before the rings are read and a bolt sets it after its push,
// so a push the drain misses leaves it set; with none pending the call is
// one load. Completions queue for delivery at the loop top.
//
//dsps:hotpath
//dsps:ringconsumer
func (rt *runningTopology) drainAcks(tk *task) {
	if tk.opsPending.Load() == 0 {
		return
	}
	tk.opsPending.Store(0)
	rings := *tk.ackRings.Load()
	scratch := tk.opScratch
	for budget := ackDrainBatches * len(scratch); budget > 0; {
		more := false
		for _, r := range rings {
			n := r.PopN(scratch)
			for _, op := range scratch[:n] {
				rt.acker.apply(&tk.slots, op)
			}
			budget -= n
			more = more || n == len(scratch)
		}
		if !more {
			return
		}
	}
	tk.opsPending.Store(1)
}
