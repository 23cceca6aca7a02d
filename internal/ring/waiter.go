package ring

import "sync/atomic"

// Waiter is the consumer-side parking primitive for one or more SPSC
// rings. Rings themselves are non-blocking; a consumer that finds all
// of its rings empty parks on its Waiter and producers wake it after a
// push.
//
// Protocol (the Dekker-style store/load pairing makes lost wakeups
// impossible under Go's sequentially consistent atomics):
//
//	consumer: Prepare() → re-check rings → if empty, select on C()
//	          (plus shutdown channels); afterwards Cancel() unless the
//	          wake arrived via C().
//	producer: push → Wake().
//
// Either the producer's push is ordered before the consumer's Prepare
// — then the consumer's re-check observes the element — or Prepare is
// ordered first, in which case the producer's Wake observes the parked
// flag and delivers a token. Spurious tokens are possible (a Wake that
// raced a Cancel); consumers must treat C() firing as a hint to
// re-check, never as a guarantee of data.
type Waiter struct {
	parked atomic.Int32
	ch     chan struct{}
}

// NewWaiter builds a Waiter ready for use.
func NewWaiter() *Waiter {
	return &Waiter{ch: make(chan struct{}, 1)}
}

// Prepare announces intent to park. Call before the final emptiness
// re-check; pair with Cancel if the consumer does not end up blocking
// on C() or wakes via a different channel.
func (w *Waiter) Prepare() { w.parked.Store(1) }

// Cancel retracts a Prepare and drains any token a concurrent Wake may
// have deposited, so the next park round does not wake instantly.
func (w *Waiter) Cancel() {
	w.parked.Store(0)
	select {
	case <-w.ch:
	default:
	}
}

// Wake unparks the consumer if it is parked (or about to park). Called
// by producers after a successful push; cheap no-op when the consumer
// is running.
func (w *Waiter) Wake() {
	if w.parked.Load() != 0 && w.parked.CompareAndSwap(1, 0) {
		select {
		case w.ch <- struct{}{}:
		default:
		}
	}
}

// C returns the channel a prepared consumer blocks on. A receive means
// "re-check your rings"; the parked flag is already cleared.
func (w *Waiter) C() <-chan struct{} { return w.ch }
