// Package corpus is the splicesend analyzer's test corpus. It imports the
// real ring package so the analyzer's type-identity match (a push on
// ring.SPSC, any instantiation) is exercised, not a lookalike.
package corpus

import (
	"sync"

	"predstream/internal/ring"
)

type worker struct {
	in   *ring.SPSC[[]int]
	dead bool
}

type topo struct {
	spliceMu sync.RWMutex
	mu       sync.Mutex
	targets  []*worker
	acks     *ring.SPSC[int]
}

// barePush hands a batch over with no lock at all: a concurrent retire can
// stop draining the ring mid-push.
func (t *topo) barePush(w *worker, b []int) {
	w.in.Push(b) // want: splicesend
}

// wrongLock holds a lock, but not the splice lock.
func (t *topo) wrongLock(w *worker, b []int) {
	t.mu.Lock()
	w.in.Push(b) // want: splicesend
	t.mu.Unlock()
}

// unlockedTail releases the read lock before the push lands.
func (t *topo) unlockedTail(w *worker, b []int) {
	t.spliceMu.RLock()
	dead := w.dead
	t.spliceMu.RUnlock()
	if !dead {
		w.in.Push(b) // want: splicesend
	}
}

// pushInCondition pushes from an if condition, the engine's retry shape,
// without the lock.
func (t *topo) pushInCondition(w *worker, b []int) bool {
	if !w.in.Push(b) { // want: splicesend
		return false
	}
	return true
}

// ackPush covers a second instantiation.
func (t *topo) ackPush(op int) bool {
	return t.acks.Push(op) // want: splicesend
}

// readLockedPush is the engine's producer shape and must NOT be flagged.
func (t *topo) readLockedPush(w *worker, b []int) {
	t.spliceMu.RLock()
	if !w.dead {
		if !w.in.Push(b) {
			t.spliceMu.RUnlock()
			return
		}
	}
	t.spliceMu.RUnlock()
}

// writeLockedPush holds the exclusive splice lock: also fine.
func (t *topo) writeLockedPush(w *worker, b []int) {
	t.spliceMu.Lock()
	w.in.Push(b)
	t.spliceMu.Unlock()
}

// deferredSpliceUnlock keeps the lock to function exit: the push is held.
func (t *topo) deferredSpliceUnlock(w *worker, b []int) {
	t.spliceMu.RLock()
	defer t.spliceMu.RUnlock()
	w.in.Push(b)
}

// selectLockedPush takes the lock inside the comm body before pushing —
// the ticker's self-push shape; must NOT be flagged.
func (t *topo) selectLockedPush(w *worker, b []int, tick chan struct{}) {
	for {
		select {
		case <-tick:
			t.spliceMu.RLock()
			if w.dead {
				t.spliceMu.RUnlock()
				return
			}
			w.in.Push(b)
			t.spliceMu.RUnlock()
		}
	}
}

// readsAndPops are not pushes; they stay out of scope.
func (t *topo) readsAndPops(w *worker, out chan []int) {
	if w.in.Len() > 0 {
		if b, ok := w.in.Pop(); ok {
			out <- b
		}
	}
}
