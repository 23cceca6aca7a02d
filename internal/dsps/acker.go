package dsps

import (
	"sort"
	"sync"
	"time"
)

// ackResult is delivered (in batches) to the spout executor that emitted
// the root tuple. Roots anchored through the typed emit path carry their
// message id in msgU64 (hasU64 set) so the delivery back to an AckerU64
// spout never boxes.
type ackResult struct {
	msgID    any
	msgU64   uint64
	hasU64   bool
	ok       bool // true = fully processed, false = failed/timed out
	latency  time.Duration
	spoutTID int
}

// acker implements Storm's XOR-tree acking: every emitted tuple edge has a
// random 64-bit id; the tracked value of a root is the XOR of all edge ids
// seen so far (each id appears once when created and once when acked, so
// the value returns to zero exactly when the whole tree completed).
//
// The pending table is sharded by rootID across power-of-two stripes.
// On the channel plane executors mutate shards directly, so the stripe
// mutex is the contention point. On the ring plane every shard is owned
// by a single writer goroutine (see ackOwners) that applies batched ops
// under one uncontended lock acquisition per batch — the mutex survives
// only so cold-path readers (sweep, inFlight, metrics) stay trivially
// safe. Completion results are *returned* to the caller rather than
// pushed through a callback, so callers can batch deliveries back to the
// owning spout.
type acker struct {
	shards []ackerShard
	mask   uint64

	timeout time.Duration
	// nowNs stamps register/complete times; the engine wires it to the
	// topology's coarse clock so the hot path never calls time.Now.
	nowNs func() int64
	// sweepNow is the precise clock the timeout sweep compares against
	// (coarse-stamped starts age at most one coarse tick early).
	sweepNow func() time.Time
}

// ackerShard is one stripe of the pending table, padded to a cache line
// so neighboring shards do not false-share. The map holds entries by
// value: registering a root is a map store, not a heap allocation.
type ackerShard struct {
	mu      sync.Mutex
	pending map[uint64]ackEntry
	_       [64 - 16]byte
}

type ackEntry struct {
	msgID    any
	msgU64   uint64
	val      uint64
	startNs  int64
	spoutTID int
	// hasInit records that the root's register was applied. On the channel
	// plane registration is synchronous, so it is always true; on the ring
	// plane a transition can be drained from its producer's ring before the
	// register is drained from the spout's, in which case the entry is a
	// placeholder accumulating XOR state until the register lands.
	hasInit bool
	// failed marks a placeholder whose fail arrived before its register.
	failed bool
}

// newAcker builds an acker with ackerShards lock shards. A nil nowNs falls
// back to the real clock.
func newAcker(timeout time.Duration, nowNs func() int64) *acker {
	if nowNs == nil {
		nowNs = func() int64 { return time.Now().UnixNano() }
	}
	a := &acker{
		shards:   make([]ackerShard, ackerShards),
		mask:     ackerShards - 1,
		timeout:  timeout,
		nowNs:    nowNs,
		sweepNow: time.Now,
	}
	for i := range a.shards {
		a.shards[i].pending = make(map[uint64]ackEntry)
	}
	return a
}

// shard is on the per-tuple data plane.
//
//dsps:hotpath
func (a *acker) shard(rootID uint64) *ackerShard {
	return &a.shards[rootID&a.mask]
}

// shardIndex returns the owning stripe index of a root id.
//
//dsps:hotpath
func (a *acker) shardIndex(rootID uint64) int { return int(rootID & a.mask) }

// result builds the completion for e, clamping latency to a nanosecond so
// sub-coarse-tick completions still register as measured.
//
//dsps:hotpath
func (a *acker) result(e ackEntry, ok bool) ackResult {
	lat := time.Duration(a.nowNs() - e.startNs)
	if lat < 1 {
		lat = 1
	}
	return ackResult{
		msgID:    e.msgID,
		msgU64:   e.msgU64,
		hasU64:   e.msgID == nil,
		ok:       ok,
		latency:  lat,
		spoutTID: e.spoutTID,
	}
}

// register starts tracking a new root tuple: rootID keys the tree, edgeID
// is the XOR of the spout's initial output edges. Exactly one of msgID
// (boxed anchoring) and msgU64 (typed-lane anchoring) identifies the root
// back to its spout. Channel-plane path; ring-plane registration goes
// through applyLocked.
//
//dsps:hotpath
func (a *acker) register(rootID, edgeID uint64, msgID any, msgU64 uint64, spoutTID int) {
	s := a.shard(rootID)
	s.mu.Lock()
	s.pending[rootID] = ackEntry{
		msgID:    msgID,
		msgU64:   msgU64,
		val:      edgeID,
		startNs:  a.nowNs(),
		spoutTID: spoutTID,
		hasInit:  true,
	}
	s.mu.Unlock()
}

// transition records a bolt finishing one input edge and creating the
// given output edges: the tracked value XORs the consumed edge and every
// produced edge. A zero result completes the root; the completion is
// returned for the caller to deliver. Channel-plane path.
//
//dsps:hotpath
func (a *acker) transition(rootID, consumedEdge uint64, producedEdges []uint64) (ackResult, bool) {
	s := a.shard(rootID)
	s.mu.Lock()
	e, ok := s.pending[rootID]
	if !ok {
		s.mu.Unlock()
		return ackResult{}, false
	}
	e.val ^= consumedEdge
	for _, p := range producedEdges {
		e.val ^= p
	}
	if e.val != 0 {
		s.pending[rootID] = e
		s.mu.Unlock()
		return ackResult{}, false
	}
	delete(s.pending, rootID)
	s.mu.Unlock()
	return a.result(e, true), true
}

// fail fails a root immediately (a bolt called Fail on a descendant),
// returning the completion for the caller to deliver. Channel-plane path.
//
//dsps:hotpath
func (a *acker) fail(rootID uint64) (ackResult, bool) {
	s := a.shard(rootID)
	s.mu.Lock()
	e, ok := s.pending[rootID]
	if !ok {
		s.mu.Unlock()
		return ackResult{}, false
	}
	delete(s.pending, rootID)
	s.mu.Unlock()
	return a.result(e, false), true
}

// applyLocked applies one ring-plane ack op to shard s, which the caller
// (the shard's owner goroutine) has locked — owners lock once per drained
// batch, so the per-op cost is a plain map operation. Unlike the
// channel-plane entry points it tolerates op reordering across producer
// rings: an op for an unknown root creates a placeholder that the
// eventual register resolves. XOR commutes, so the order ops land in is
// irrelevant to the completion value.
//
//dsps:hotpath
func (a *acker) applyLocked(s *ackerShard, op ackOp) (ackResult, bool) {
	e, ok := s.pending[op.rootID]
	switch op.kind {
	case ackOpRegister:
		if !ok {
			s.pending[op.rootID] = ackEntry{
				msgID:    op.msgID,
				msgU64:   op.msgU64,
				val:      op.val,
				startNs:  op.startNs,
				spoutTID: op.spoutTID,
				hasInit:  true,
			}
			return ackResult{}, false
		}
		// Placeholder from ops that overtook the register.
		e.msgID = op.msgID
		e.msgU64 = op.msgU64
		e.startNs = op.startNs
		e.spoutTID = op.spoutTID
		e.hasInit = true
		e.val ^= op.val
		if e.failed {
			delete(s.pending, op.rootID)
			return a.result(e, false), true
		}
		if e.val == 0 {
			delete(s.pending, op.rootID)
			return a.result(e, true), true
		}
		s.pending[op.rootID] = e
		return ackResult{}, false
	case ackOpXor:
		if !ok {
			s.pending[op.rootID] = ackEntry{val: op.val, startNs: op.startNs}
			return ackResult{}, false
		}
		e.val ^= op.val
		if e.hasInit && e.val == 0 {
			delete(s.pending, op.rootID)
			return a.result(e, true), true
		}
		s.pending[op.rootID] = e
		return ackResult{}, false
	default: // ackOpFail
		if !ok {
			s.pending[op.rootID] = ackEntry{failed: true, startNs: op.startNs}
			return ackResult{}, false
		}
		if !e.hasInit {
			e.failed = true
			s.pending[op.rootID] = e
			return ackResult{}, false
		}
		delete(s.pending, op.rootID)
		return a.result(e, false), true
	}
}

// sweep fails every root older than the timeout and returns the expired
// completions, oldest first. The topology's sweeper goroutine calls it
// periodically and routes the results back to their spouts. Young
// placeholders (ring-plane entries whose register has not yet drained) are
// left alone — their register is already staged and resolves within one
// owner drain pass. Placeholders older than the timeout are orphans (a
// straggler op that landed after the sweep already failed its root) and
// are deleted silently: they carry no spout identity, and their root's
// one-and-only completion was the timeout fail that preceded them.
//
// The pending tables are maps, so the collection order is randomized per
// run; expirations are therefore sorted by (start time, rootID) before
// being returned, making the Fail delivery order a function of the expired
// set alone — chaos replays see the same ack-fail sequence for the same
// seed.
func (a *acker) sweep() []ackResult {
	if a.timeout <= 0 {
		return nil
	}
	cutoffNs := a.sweepNow().Add(-a.timeout).UnixNano()
	type expiredRoot struct {
		id uint64
		e  ackEntry
	}
	var expired []expiredRoot
	for i := range a.shards {
		s := &a.shards[i]
		s.mu.Lock()
		for id, e := range s.pending {
			if e.startNs >= cutoffNs {
				continue
			}
			delete(s.pending, id)
			if e.hasInit {
				expired = append(expired, expiredRoot{id: id, e: e})
			}
		}
		s.mu.Unlock()
	}
	sort.Slice(expired, func(i, j int) bool {
		if expired[i].e.startNs != expired[j].e.startNs {
			return expired[i].e.startNs < expired[j].e.startNs
		}
		return expired[i].id < expired[j].id
	})
	out := make([]ackResult, len(expired))
	for i, x := range expired {
		out[i] = a.result(x.e, false)
	}
	return out
}

// shardPending returns the pending-root count of each lock shard, in
// shard order — the per-stripe breakdown behind inFlight.
func (a *acker) shardPending() []int {
	out := make([]int, len(a.shards))
	for i := range a.shards {
		s := &a.shards[i]
		s.mu.Lock()
		out[i] = len(s.pending)
		s.mu.Unlock()
	}
	return out
}

// inFlight returns the number of incomplete tracked roots.
func (a *acker) inFlight() int {
	total := 0
	for i := range a.shards {
		s := &a.shards[i]
		s.mu.Lock()
		total += len(s.pending)
		s.mu.Unlock()
	}
	return total
}
