package ring

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// waitKinds are the two ways Wait blocks, picked by the duration it is
// given: in the kernel (Linux only) below kernelWaitMin, on the channel
// and the Waiter's timer from there up.
var waitKinds = []struct {
	name string
	d    time.Duration
}{
	{"kernel", 900 * time.Microsecond},
	{"timer", 20 * time.Millisecond},
}

// eachWaitKind runs f once per kind of wait, as a subtest.
func eachWaitKind(t *testing.T, f func(t *testing.T, d time.Duration)) {
	for _, k := range waitKinds {
		t.Run(k.name, func(t *testing.T) {
			if k.d < kernelWaitMin && !kernelWaitOK {
				t.Skip("no kernel-timed wait on this platform")
			}
			f(t, k.d)
		})
	}
}

// timedWait runs one Wait(d) of a prepared waiter and returns how long it
// took.
func timedWait(w *Waiter, d time.Duration) time.Duration {
	start := time.Now()
	w.Wait(d)
	return time.Since(start)
}

// median sorts took and returns its middle element. The tests judge
// medians, since a signal can cut one wait short and a busy host stretch
// one.
func median(took []time.Duration) time.Duration {
	slices.Sort(took)
	return took[len(took)/2]
}

// wakeDuringWait starts a goroutine that wakes w once its consumer is
// blocked: in the kernel wait once the state says so, in the timer wait
// after a tenth of d. The consumer calls the returned join once its wait
// has ended, so that a late waker cannot reach the next wait.
func wakeDuringWait(w *Waiter, d time.Duration) (join func()) {
	var over atomic.Bool
	done := make(chan struct{})
	go func() {
		defer close(done)
		if d < kernelWaitMin {
			for w.state.Load() != kernelWait {
				if over.Load() {
					return
				}
				runtime.Gosched()
			}
		} else {
			time.Sleep(d / 10)
		}
		w.Wake()
	}()
	return func() {
		over.Store(true)
		<-done
	}
}

const waitTrials = 9

func TestWakeBeforeWaitReturnsAtOnce(t *testing.T) {
	eachWaitKind(t, func(t *testing.T, d time.Duration) {
		w := NewWaiter()
		took := make([]time.Duration, waitTrials)
		for i := range took {
			w.Prepare()
			w.Wake()
			took[i] = timedWait(w, d)
		}
		if m := median(took); m >= d/2 {
			t.Fatalf("median wait after a Wake took %v, want at once (< %v)", m, d/2)
		}
	})
}

// TestWakeEndsWaitEarly wakes the consumer while it is blocked; the wake
// must end the wait long before d.
func TestWakeEndsWaitEarly(t *testing.T) {
	eachWaitKind(t, func(t *testing.T, d time.Duration) {
		w := NewWaiter()
		took := make([]time.Duration, waitTrials)
		for i := range took {
			w.Prepare()
			join := wakeDuringWait(w, d)
			took[i] = timedWait(w, d)
			join()
		}
		if m := median(took); m >= d/2 {
			t.Fatalf("median woken %v wait took %v, want < %v: the Wake did not end it", d, m, d/2)
		}
	})
}

// TestWaitAfterWakeRunsFull pins that a Wake is consumed by the wait it
// ends, whether it came before the wait began or during it: the next
// wait, of either kind, which nothing wakes, runs about its d.
func TestWaitAfterWakeRunsFull(t *testing.T) {
	wakes := []struct {
		name string
		wake func(w *Waiter, d time.Duration) (join func())
	}{
		{"before", func(w *Waiter, _ time.Duration) func() {
			w.Wake()
			return func() {}
		}},
		{"during", wakeDuringWait},
	}
	eachWaitKind(t, func(t *testing.T, d time.Duration) {
		w := NewWaiter()
		for _, k := range wakes {
			for _, next := range waitKinds {
				if next.d < kernelWaitMin && !kernelWaitOK {
					continue
				}
				took := make([]time.Duration, waitTrials)
				for i := range took {
					w.Prepare()
					join := k.wake(w, d)
					w.Wait(d)
					join()
					w.Prepare()
					took[i] = timedWait(w, next.d)
				}
				if m := median(took); m < next.d || m >= 2*next.d {
					t.Errorf("median unwoken %v wait after a wake %s a %v one took %v, want in [%v, %v): the wake leaked into it",
						next.d, k.name, d, m, next.d, 2*next.d)
				}
			}
		}
	})
}

// TestWaiterSpuriousTokenDrained pins that Cancel consumes the wake that
// raced it: the next wait runs about d.
func TestWaiterSpuriousTokenDrained(t *testing.T) {
	eachWaitKind(t, func(t *testing.T, d time.Duration) {
		w := NewWaiter()
		took := make([]time.Duration, waitTrials)
		for i := range took {
			w.Prepare()
			w.Wake()
			w.Cancel()
			w.Prepare()
			took[i] = timedWait(w, d)
		}
		if m := median(took); m < d || m >= 2*d {
			t.Fatalf("median %v wait after a cancelled wake took %v, want in [%v, %v): the wake survived Cancel", d, m, d, 2*d)
		}
	})
}

// TestKernelWaitHonoursShortTimeout pins the point of the kernel-timed
// wait: a 100 µs wait takes about 100 µs, where a runtime timer would take
// a whole netpoller millisecond.
func TestKernelWaitHonoursShortTimeout(t *testing.T) {
	if !kernelWaitOK {
		t.Skip("no kernel-timed wait on this platform")
	}
	const d = 100 * time.Microsecond
	w := NewWaiter()
	took := make([]time.Duration, 25)
	for i := range took {
		w.Prepare()
		took[i] = timedWait(w, d)
	}
	m := median(took)
	t.Logf("median %v wait took %v (min %v, max %v)", d, m, took[0], took[len(took)-1])
	if m < d || m >= time.Millisecond {
		t.Errorf("median %v wait took %v, want in [%v, 1ms)", d, m, d)
	}
}
