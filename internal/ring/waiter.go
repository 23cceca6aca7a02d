package ring

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Waiter is the parking primitive of one consumer: a task that finds no
// work, on its rings or in any other state a peer publishes, blocks in
// Wait, and the peer ends the wait with Wake.
//
// Protocol (the Dekker-style store/load pairing makes lost wakeups
// impossible under Go's sequentially consistent atomics):
//
//	consumer: Prepare() → re-check rings and every other wake source →
//	          if none fired, Wait(d); otherwise Cancel().
//	waker:    push (or publish any other state) → Wake().
//
// Either the producer's push is ordered before the consumer's Prepare
// — then the consumer's re-check observes the element — or Prepare is
// ordered first, in which case the producer's Wake observes the prepared
// state and ends the wait. A woken consumer must re-check: a wake means
// "look again", never a guarantee of data.
//
// Wait picks how to block from d. An untimed wait and one of
// kernelWaitMin or more block on a channel, the timed one with a timer
// the Waiter owns. A shorter one blocks in futex(2) on the state word
// (Linux only), where a runtime timer would stretch it to the netpoller's
// whole-millisecond quantum (≈1.06 ms on an idle Linux process). Wake ends
// either kind, and the wait or Cancel it ends consumes it, so no wake
// leaks into the next wait.
type Waiter struct {
	state atomic.Uint32
	ch    chan struct{}
	timer *time.Timer
}

// Waiter states. The consumer moves running → prepared (Prepare) and,
// for a kernel-timed wait, prepared → kernelWait; whichever side moves
// the state back to running first owns the end of the wait.
const (
	running    = 0
	prepared   = 1 // a Wake sends a token on ch
	kernelWait = 2 // a Wake ends a futex wait on state
)

// kernelWaitMin is the shortest timed wait that blocks on the channel and
// a runtime timer; shorter ones wait in the kernel where it can time them.
const kernelWaitMin = time.Millisecond

// NewWaiter builds a Waiter ready for use.
func NewWaiter() *Waiter {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &Waiter{ch: make(chan struct{}, 1), timer: t}
}

// Prepare announces intent to wait. Call it before the final re-check of
// every wake source, then either Wait or Cancel.
func (w *Waiter) Prepare() { w.state.Store(prepared) }

// Cancel retracts a Prepare whose re-check found work. If a Wake already
// claimed the wait, Cancel takes its token, so the next wait does not end
// at once.
func (w *Waiter) Cancel() {
	if !w.state.CompareAndSwap(prepared, running) {
		<-w.ch
	}
}

// Wake ends the consumer's wait if it is prepared or waiting, and is a
// single load when the consumer is running.
func (w *Waiter) Wake() {
	for {
		switch w.state.Load() {
		case running:
			return
		case prepared:
			if w.state.CompareAndSwap(prepared, running) {
				select {
				case w.ch <- struct{}{}:
				default:
				}
				return
			}
		case kernelWait:
			if w.state.CompareAndSwap(kernelWait, running) {
				futexWake(&w.state)
				return
			}
		}
	}
}

// Wait blocks a prepared consumer until a Wake or, for d > 0, until about
// d has passed. The caller has called Prepare and re-checked what a wake
// stands for.
func (w *Waiter) Wait(d time.Duration) {
	switch {
	case d <= 0:
		<-w.ch
	case d < kernelWaitMin && kernelWaitOK:
		w.waitKernel(d)
	default:
		w.waitTimer(d)
	}
}

// waitTimer blocks on the channel for at most d.
func (w *Waiter) waitTimer(d time.Duration) {
	if !w.timer.Stop() {
		// Drop a fire an earlier wait left unread.
		select {
		case <-w.timer.C:
		default:
		}
	}
	w.timer.Reset(d)
	select {
	case <-w.ch:
	case <-w.timer.C:
		w.Cancel()
	}
}

// waitKernel yields first, so that the goroutines the consumer has just
// readied on its P run before the P sits in the syscall, then waits in
// futex(2) for at most d. A Wake during the yield finds the wait still
// prepared and leaves a token, which the consumer takes instead.
func (w *Waiter) waitKernel(d time.Duration) {
	runtime.Gosched()
	if !w.state.CompareAndSwap(prepared, kernelWait) {
		<-w.ch
		return
	}
	futexWait(&w.state, kernelWait, d)
	// Timed out, unless a Wake already moved the state to running.
	w.state.CompareAndSwap(kernelWait, running)
}
