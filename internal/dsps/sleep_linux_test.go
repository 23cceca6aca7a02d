package dsps

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestFutexWaitOnChangedWordReturnsAtOnce(t *testing.T) {
	var w atomic.Uint32 // 0: not the value the wait expects
	start := time.Now()
	futexWait(&w, 1, time.Second)
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("wait on a word that no longer holds its value took %v, want at once", d)
	}
}

// TestFutexWakeEndsWait wakes the way sendAcks does: clear the word, then
// wake. A wake-up that came before the wait began finds the word cleared
// and returns at once; one that came during it must end it long before the
// 1 s timeout.
func TestFutexWakeEndsWait(t *testing.T) {
	var w atomic.Uint32
	w.Store(1)
	go func() {
		time.Sleep(20 * time.Millisecond)
		w.Store(0)
		futexWake(&w)
	}()
	start := time.Now()
	futexWait(&w, 1, time.Second)
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("woken wait took %v, want < 100ms: the wake did not end it", d)
	}
}

// TestFutexWaitHonoursShortTimeout pins the point of the kernel-timed
// wait: a 100 µs timeout sleeps about 100 µs, where a runtime timer would
// sleep a whole netpoller millisecond. It judges the median of several
// waits, since a signal can cut one short and a busy host stretch one.
func TestFutexWaitHonoursShortTimeout(t *testing.T) {
	const (
		d     = 100 * time.Microsecond
		waits = 25
	)
	var w atomic.Uint32
	w.Store(1)
	took := make([]time.Duration, waits)
	for i := range took {
		start := time.Now()
		futexWait(&w, 1, d)
		took[i] = time.Since(start)
	}
	slices.Sort(took)
	median := took[waits/2]
	t.Logf("median %v wait took %v (min %v, max %v)", d, median, took[0], took[waits-1])
	if median < d || median >= time.Millisecond {
		t.Errorf("median %v wait took %v, want in [%v, 1ms)", d, median, d)
	}
}
