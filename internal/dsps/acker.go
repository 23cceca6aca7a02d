package dsps

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// ackOp is one bolt's contribution to a root's XOR tree, sent (in
// batches) to the spout that owns the root's slot. xor is the consumed
// edge id XOR every edge id the bolt produced while executing it; fail
// fails the root outright instead. An op whose root no longer occupies
// the slot is a straggler and is dropped.
type ackOp struct {
	root uint64
	xor  uint64
	slot uint32
	fail bool
}

// ackDone is a root whose completion the spout has applied and not yet
// delivered: the spout delivers (Ack/Fail, then release of the slot) only
// at its loop top, never from inside NextTuple.
type ackDone struct {
	msgID   any
	slot    uint32
	ok      bool // true = fully processed, false = failed/timed out
	latency time.Duration
}

// acker implements Storm's XOR-tree acking: every emitted tuple edge has a
// random 64-bit id; the tracked value of a root is the XOR of all edge ids
// seen so far (each id appears once when created and once when acked, so
// the value returns to zero exactly when the whole tree completed).
//
// The pending table is a slab of root slots. Every spout task owns whole
// chunks of the slab (one chunk covers MaxSpoutPending roots) and is the
// only goroutine that ever reads or writes their slots: it registers a
// root, applies the ops bolts send it, sweeps timed-out roots and takes
// the slot back when it delivers the completion, so a slot needs no lock
// and is never reused while anything can still complete it. Anchored
// tuples carry their root's slot; a bolt finds the owning spout through
// the chunk → spout directory published next to the chunks.
type acker struct {
	// dir is the slab directory. It only grows, by whole chunks, and a
	// chunk never moves once published, so readers index it lock-free. A
	// slot index is chunk<<shift | offset; a chunk holds 1<<shift slots.
	dir    atomic.Pointer[slabDir]
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
	// every bolt reads.
	_    [64]byte
	live atomic.Int64
	_    [56]byte
}

// slabDir is one published version of the slab directory: chunks[c] is
// chunk c and owners[c] the id of the spout task that owns it.
type slabDir struct {
	chunks [][]ackSlot
	owners []int
}

// ackSlot is one tracked root. id is the root id, zero while the slot is
// free or its completion awaits delivery (root ids are never zero). Only
// the owning spout's goroutine touches it.
type ackSlot struct {
	id      uint64
	val     uint64
	msgID   any
	startNs int64
}

// slotPool is one spout task's share of the slab. Only the spout's
// executor goroutine touches it. free holds every slot the spout owns, so
// a release never outgrows it; free[:n] are the ones not in use. done
// queues applied completions, done[head:nDone] still to be delivered. It
// is as long as free, and an undelivered completion holds its slot, so
// the undelivered ones always fit.
type slotPool struct {
	owner       int // the spout's task id
	free        []uint32
	n           int
	chunks      []uint32 // chunk indices this spout owns, for its sweep
	done        []ackDone
	head, nDone int
}

// inUse is the number of the spout's roots whose completion it has not
// delivered yet — what MaxSpoutPending bounds.
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
	a.dir.Store(&slabDir{})
	return a
}

// grow gives pool p one new chunk of slots and publishes it, with p's
// spout as its owner, in the directory. Existing chunks are never copied,
// only the directory of references to them. Runs when a spout task is
// built and whenever one emits past the slots it owns inside one
// NextTuple — never per root in steady state.
//
//dsps:coldpath
func (a *acker) grow(p *slotPool) {
	n := 1 << a.shift
	a.growMu.Lock()
	old := a.dir.Load()
	c := len(old.chunks)
	dir := &slabDir{
		chunks: append(old.chunks[:c:c], make([]ackSlot, n)),
		owners: append(old.owners[:c:c], p.owner),
	}
	a.dir.Store(dir)
	a.growMu.Unlock()
	p.chunks = append(p.chunks, uint32(c))
	free := make([]uint32, len(p.free)+n)
	copy(free, p.free[:p.n])
	for i := range n {
		free[p.n] = uint32(c<<a.shift | i)
		p.n++
	}
	p.free = free
	done := make([]ackDone, len(free))
	copy(done, p.done[:p.nDone])
	p.done = done
}

// slot returns the slot at index i.
//
//dsps:hotpath
func (a *acker) slot(i uint32) *ackSlot {
	return &a.dir.Load().chunks[i>>a.shift][i&(1<<a.shift-1)]
}

// owner returns the id of the spout task whose root occupies slot i.
//
//dsps:hotpath
func (a *acker) owner(i uint32) int {
	return a.dir.Load().owners[i>>a.shift]
}

// register starts tracking a new root tuple in a slot taken from the
// spout's pool p, growing the pool when it is empty, and returns the slot
// for the root's tuples to carry. rootID keys the tree, edgeID is the XOR
// of the spout's initial output edges, and msgID identifies the root back
// to its spout.
//
//dsps:hotpath
func (a *acker) register(p *slotPool, rootID, edgeID uint64, msgID any) uint32 {
	if p.n == 0 {
		a.grow(p)
	}
	p.n--
	i := p.free[p.n]
	s := a.slot(i)
	s.id = rootID
	s.val = edgeID
	s.msgID = msgID
	s.startNs = a.nowNs()
	a.live.Add(1)
	return i
}

// apply applies one op to the spout's slot: a straggler (root id
// mismatch) is dropped, a fail op fails the root, and an XOR that brings
// the value to zero completes it. Completions queue on p for delivery.
//
//dsps:hotpath
func (a *acker) apply(p *slotPool, op ackOp) {
	s := a.slot(op.slot)
	if s.id != op.root {
		return
	}
	if op.fail {
		a.complete(p, s, op.slot, false)
		return
	}
	s.val ^= op.xor
	if s.val == 0 {
		a.complete(p, s, op.slot, true)
	}
}

// complete queues the completion of slot s (index i) for delivery and
// marks the slot done, so later ops for its root are dropped. The slot
// stays out of the free list until release. Latency is clamped to a
// nanosecond so sub-coarse-tick completions still register as measured.
//
//dsps:hotpath
func (a *acker) complete(p *slotPool, s *ackSlot, i uint32, ok bool) {
	lat := time.Duration(a.nowNs() - s.startNs)
	if lat < 1 {
		lat = 1
	}
	if p.nDone == len(p.done) {
		// A callback mid-delivery completed more roots than the queue
		// has room left for: drop the delivered prefix.
		n := copy(p.done, p.done[p.head:p.nDone])
		clear(p.done[n:p.nDone])
		p.head, p.nDone = 0, n
	}
	p.done[p.nDone] = ackDone{msgID: s.msgID, slot: i, ok: ok, latency: lat}
	p.nDone++
	s.id = 0
	s.msgID = nil
}

// release hands a delivered root's slot back to its spout's pool: nothing
// can complete the slot's root any more, so the slot is free for the next
// register.
//
//dsps:hotpath
func (a *acker) release(p *slotPool, slot uint32) {
	p.free[p.n] = slot
	p.n++
	a.live.Add(-1)
}

// sweep fails every root of pool p older than the timeout, queueing the
// expirations behind any completions already waiting. They are sorted by
// (start time, rootID), so the Fail delivery order is a function of the
// expired set alone, not of where the roots sit in the slab — chaos
// replays see the same ack-fail sequence for the same seed.
func (a *acker) sweep(p *slotPool) {
	if a.timeout <= 0 {
		return
	}
	cutoffNs := a.sweepNow().Add(-a.timeout).UnixNano()
	dir := a.dir.Load()
	var expired []uint32
	for _, c := range p.chunks {
		chunk := dir.chunks[c]
		for j := range chunk {
			if s := &chunk[j]; s.id != 0 && s.startNs < cutoffNs {
				expired = append(expired, c<<a.shift|uint32(j))
			}
		}
	}
	sort.Slice(expired, func(i, j int) bool {
		x, y := a.slot(expired[i]), a.slot(expired[j])
		if x.startNs != y.startNs {
			return x.startNs < y.startNs
		}
		return x.id < y.id
	})
	for _, i := range expired {
		a.complete(p, a.slot(i), i, false)
	}
}

// inFlight returns the number of roots registered and not yet delivered
// back to their spout.
func (a *acker) inFlight() int { return int(a.live.Load()) }
