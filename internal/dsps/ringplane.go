package dsps

import "predstream/internal/ring"

// The data plane: every producer→bolt hand-off is a dedicated bounded
// SPSC ring. Producers attach a private ring to the target on first send
// and keep pushing into it for the target's lifetime; the bolt executor
// round-robins across its ring list and parks on a waiter when every ring
// runs dry. Backpressure is the tuple-denominated reserve()/release() CAS
// bound, enforced before any push, and a ring holds at least QueueSize
// batch slots, so a reserved push never finds it full.
//
// SPSC ownership discipline (enforced by dspslint's ringmisuse
// analyzer): the push side of a data ring is owned by the producer's
// executor goroutine (or the ticker goroutine for its private tick
// ring), the pop side by the target's executor goroutine. Retirement
// transfers both sides to the retiring goroutine only after the previous
// owners have provably exited (ScaleDown's awaitProducers/awaitDone
// barriers).

// attachInRingLocked creates a producer ring and splices it into
// target's consumer list. The caller holds the topology splice read lock
// and has observed target alive, so the list cannot be concurrently
// reclaimed; ringMu orders concurrent attaches (and consumer prunes)
// against each other.
//
//dsps:coldpath
func (rt *runningTopology) attachInRingLocked(target *task) *ring.SPSC[envBatch] {
	r, _ := ring.New[envBatch](rt.cfg.QueueSize)
	target.ringMu.Lock()
	old := *target.inRings.Load()
	list := make([]*ring.SPSC[envBatch], len(old)+1)
	copy(list, old)
	list[len(old)] = r
	target.inRings.Store(&list)
	target.ringMu.Unlock()
	return r
}

// drainInRings pops at most one batch from every input ring (round-robin
// fairness across producers) and processes it. Returns the number of
// tuples handled and false when the topology shut down mid-batch.
//
//dsps:hotpath
//dsps:ringconsumer
func (rt *runningTopology) drainInRings(tk *task, collector *boltCollector) (int, bool) {
	rings := *tk.inRings.Load()
	total := 0
	for _, r := range rings {
		b, ok := r.Pop()
		if !ok {
			continue
		}
		total += b.size()
		if !rt.processBatch(tk, collector, b) {
			return total, false
		}
	}
	return total, true
}

// inRingsEmpty re-checks emptiness against a *fresh* list snapshot. It
// must be called after Waiter.Prepare: the producer's attach/push are
// sequenced before its Wake, so either this check observes the new
// element or the Wake observes the parked flag — a lost wakeup is
// impossible.
//
//dsps:ringconsumer
func (rt *runningTopology) inRingsEmpty(tk *task) bool {
	for _, r := range *tk.inRings.Load() {
		if !r.Empty() {
			return false
		}
	}
	return true
}

// pruneInRings drops closed, fully drained producer rings (their
// producer was scaled down) from tk's consumer list. Cold path, called
// only when the executor is about to park.
//
//dsps:ringconsumer
func (rt *runningTopology) pruneInRings(tk *task) {
	rings := *tk.inRings.Load()
	stale := 0
	for _, r := range rings {
		if r.Closed() && r.Empty() {
			stale++
		}
	}
	if stale == 0 {
		return
	}
	tk.ringMu.Lock()
	cur := *tk.inRings.Load()
	list := make([]*ring.SPSC[envBatch], 0, len(cur))
	for _, r := range cur {
		if !(r.Closed() && r.Empty()) {
			list = append(list, r)
		}
	}
	tk.inRings.Store(&list)
	tk.ringMu.Unlock()
}

// ringDepth sums the buffered batches across tk's input rings, exported
// as predstream_ring_depth.
func (tk *task) ringDepth() int {
	total := 0
	for _, r := range *tk.inRings.Load() {
		total += r.Len()
	}
	return total
}
