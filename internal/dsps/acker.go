package dsps

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ackResult is delivered (in batches) to the spout executor that emitted
// the root tuple. Roots anchored through the typed emit path carry their
// message id in msgU64 (hasU64 set) so the delivery back to an AckerU64
// spout never boxes. slot names the root's acker slot, which the spout
// returns to its free list when it handles the result.
type ackResult struct {
	msgID    any
	msgU64   uint64
	hasU64   bool
	ok       bool // true = fully processed, false = failed/timed out
	slot     uint32
	latency  time.Duration
	spoutTID int
}

// acker implements Storm's XOR-tree acking: every emitted tuple edge has a
// random 64-bit id; the tracked value of a root is the XOR of all edge ids
// seen so far (each id appears once when created and once when acked, so
// the value returns to zero exactly when the whole tree completed).
//
// The pending table is a slab of cache-line root slots, each with its own
// lock. Every spout task owns whole chunks of the slab (one chunk covers
// MaxSpoutPending roots) and a free list of their slots (slotPool) that
// only its executor goroutine touches: it takes a slot when it registers
// a root and puts it back when the root's completion reaches it, so a
// slot is never reused while anything can still complete it. Anchored
// tuples carry their root's slot, so a bolt's transition locks exactly
// one slot. Completion results are *returned* to the caller rather than
// pushed through a callback, so callers can batch deliveries back to the
// owning spout.
type acker struct {
	// chunks is the slab directory. It only grows, by whole chunks, and a
	// chunk never moves once published, so readers index it lock-free. A
	// slot index is chunk<<shift | offset; a chunk holds 1<<shift slots.
	chunks atomic.Pointer[[][]ackSlot]
	shift  uint
	growMu sync.Mutex // orders directory growth

	timeout time.Duration
	// nowNs stamps register/complete times; the engine wires it to the
	// topology's coarse clock so the hot path never calls time.Now.
	nowNs func() int64
	// sweepNow is the precise clock the timeout sweep compares against
	// (coarse-stamped starts age at most one coarse tick early).
	sweepNow func() time.Time

	// live counts slots taken and not yet released. Only spouts write it,
	// so it sits on its own cache line, away from the directory pointer
	// every transition reads.
	_    [64]byte
	live atomic.Int64
	_    [56]byte
}

// ackSlot is one tracked root, exactly one cache line. id is the root id,
// zero while the slot is free (root ids are never zero): an op whose root
// id does not match is a straggler for a root that already completed or
// timed out, and is dropped.
type ackSlot struct {
	mu       sync.Mutex
	id       uint64
	val      uint64
	msgID    any
	msgU64   uint64
	startNs  int64
	spoutTID int
}

// slotPool is one spout task's free list of acker slots. Only the spout's
// executor goroutine touches it. free holds every slot the spout owns, so
// a release never outgrows it; free[:n] are the ones not in use.
type slotPool struct {
	free []uint32
	n    int
}

// inUse is the number of the spout's roots whose completion it has not
// handled yet — what MaxSpoutPending bounds.
func (p *slotPool) inUse() int { return len(p.free) - p.n }

// newAcker builds an acker with an empty slab whose chunks hold
// maxPending slots, rounded up to a power of two. A nil nowNs falls back
// to the real clock.
func newAcker(timeout time.Duration, maxPending int, nowNs func() int64) *acker {
	if nowNs == nil {
		nowNs = func() int64 { return time.Now().UnixNano() }
	}
	a := &acker{
		shift:    uint(bits.Len(uint(max(maxPending, 1) - 1))),
		timeout:  timeout,
		nowNs:    nowNs,
		sweepNow: time.Now,
	}
	a.chunks.Store(&[][]ackSlot{})
	return a
}

// grow gives pool p one new chunk of slots and publishes it in the
// directory. Existing chunks are never copied, only the directory of
// references to them. Runs when a spout task is built and whenever one
// emits past the slots it owns inside one NextTuple — never per root in
// steady state.
//
//dsps:coldpath
func (a *acker) grow(p *slotPool) {
	n := 1 << a.shift
	a.growMu.Lock()
	old := *a.chunks.Load()
	dir := make([][]ackSlot, len(old)+1)
	copy(dir, old)
	dir[len(old)] = make([]ackSlot, n)
	a.chunks.Store(&dir)
	a.growMu.Unlock()
	free := make([]uint32, len(p.free)+n)
	copy(free, p.free[:p.n])
	for i := range n {
		free[p.n] = uint32(len(old)<<a.shift | i)
		p.n++
	}
	p.free = free
}

// slot returns the slot at index i.
//
//dsps:hotpath
func (a *acker) slot(i uint32) *ackSlot {
	return &(*a.chunks.Load())[i>>a.shift][i&(1<<a.shift-1)]
}

// complete builds the completion of slot s (index i) and marks the slot
// free, so later ops for its root are dropped; the caller holds s.mu.
// Latency is clamped to a nanosecond so sub-coarse-tick completions still
// register as measured.
//
//dsps:hotpath
func (a *acker) complete(s *ackSlot, i uint32, ok bool) ackResult {
	lat := time.Duration(a.nowNs() - s.startNs)
	if lat < 1 {
		lat = 1
	}
	r := ackResult{
		msgID:    s.msgID,
		msgU64:   s.msgU64,
		hasU64:   s.msgID == nil,
		ok:       ok,
		slot:     i,
		latency:  lat,
		spoutTID: s.spoutTID,
	}
	s.id = 0
	s.msgID = nil
	return r
}

// register starts tracking a new root tuple in a slot taken from the
// spout's pool p, growing the pool when it is empty, and returns the slot
// for the root's tuples to carry. rootID keys the tree, edgeID is the XOR
// of the spout's initial output edges. Exactly one of msgID (boxed
// anchoring) and msgU64 (typed-lane anchoring) identifies the root back
// to its spout.
//
//dsps:hotpath
func (a *acker) register(p *slotPool, rootID, edgeID uint64, msgID any, msgU64 uint64, spoutTID int) uint32 {
	if p.n == 0 {
		a.grow(p)
	}
	p.n--
	i := p.free[p.n]
	now := a.nowNs()
	s := a.slot(i)
	// The lock orders this write against a straggler still reading the
	// previous occupant's id.
	s.mu.Lock()
	s.id = rootID
	s.val = edgeID
	s.msgID = msgID
	s.msgU64 = msgU64
	s.startNs = now
	s.spoutTID = spoutTID
	s.mu.Unlock()
	a.live.Add(1)
	return i
}

// release hands a completed root's slot back to its spout's pool. The
// spout calls it when the completion reaches it; nothing can complete the
// slot's root any more, so the slot is free for the next register.
//
//dsps:hotpath
func (a *acker) release(p *slotPool, slot uint32) {
	p.free[p.n] = slot
	p.n++
	a.live.Add(-1)
}

// transition records a bolt finishing one input edge and creating the
// given output edges: the tracked value XORs the consumed edge and every
// produced edge. A zero result completes the root; the completion is
// returned for the caller to deliver.
//
//dsps:hotpath
func (a *acker) transition(slot uint32, rootID, consumedEdge uint64, producedEdges []uint64) (ackResult, bool) {
	v := consumedEdge
	for _, p := range producedEdges {
		v ^= p
	}
	s := a.slot(slot)
	s.mu.Lock()
	if s.id != rootID {
		s.mu.Unlock()
		return ackResult{}, false
	}
	s.val ^= v
	if s.val != 0 {
		s.mu.Unlock()
		return ackResult{}, false
	}
	r := a.complete(s, slot, true)
	s.mu.Unlock()
	return r, true
}

// fail fails a root immediately (a bolt called Fail on a descendant),
// returning the completion for the caller to deliver.
//
//dsps:hotpath
func (a *acker) fail(slot uint32, rootID uint64) (ackResult, bool) {
	s := a.slot(slot)
	s.mu.Lock()
	if s.id != rootID {
		s.mu.Unlock()
		return ackResult{}, false
	}
	r := a.complete(s, slot, false)
	s.mu.Unlock()
	return r, true
}

// sweep fails every root older than the timeout and returns the expired
// completions. The topology's sweeper goroutine calls it periodically and
// routes the results back to their spouts. Expirations are sorted by
// (start time, rootID), so the Fail delivery order is a function of the
// expired set alone, not of where the roots sit in the slab — chaos
// replays see the same ack-fail sequence for the same seed.
func (a *acker) sweep() []ackResult {
	if a.timeout <= 0 {
		return nil
	}
	cutoffNs := a.sweepNow().Add(-a.timeout).UnixNano()
	type expiredRoot struct {
		id      uint64
		startNs int64
		r       ackResult
	}
	var expired []expiredRoot
	for ci, c := range *a.chunks.Load() {
		for j := range c {
			s := &c[j]
			s.mu.Lock()
			if s.id != 0 && s.startNs < cutoffNs {
				x := expiredRoot{id: s.id, startNs: s.startNs}
				x.r = a.complete(s, uint32(ci<<a.shift|j), false)
				expired = append(expired, x)
			}
			s.mu.Unlock()
		}
	}
	sort.Slice(expired, func(i, j int) bool {
		if expired[i].startNs != expired[j].startNs {
			return expired[i].startNs < expired[j].startNs
		}
		return expired[i].id < expired[j].id
	})
	out := make([]ackResult, len(expired))
	for i, x := range expired {
		out[i] = x.r
	}
	return out
}

// inFlight returns the number of roots registered and not yet handed back
// to their spout.
func (a *acker) inFlight() int { return int(a.live.Load()) }
