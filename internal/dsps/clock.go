package dsps

import (
	"sync/atomic"
	"time"
)

// coarseTick is the refresh period the coarse clock asks for. Its ticker
// is a runtime timer, which an idle Linux process fires only every
// netpoller quantum (≈1.06 ms), so hot-path timestamps (enqueue stamps,
// histogram observes, acker start/complete times) are accurate to within
// about 1.1 ms; anything needing more precision (the acker timeout sweep
// cutoff) keeps using time.Now.
const coarseTick = 500 * time.Microsecond

// coarseClock publishes a nanosecond wall timestamp through an atomic,
// refreshed by a ticker goroutine, so per-tuple code can stamp events
// without the cost of a time.Now call per envelope. Readers see a
// monotonically non-decreasing value (a single writer stores successive
// time.Now readings), which keeps derived latencies non-negative.
type coarseClock struct {
	ns atomic.Int64
}

// nowNs returns the last published timestamp.
//
//dsps:hotpath
func (c *coarseClock) nowNs() int64 { return c.ns.Load() }

// run refreshes the clock until closed is set, and after each refresh
// calls tick with the previous and the new reading. The caller must have
// seeded the clock with an initial time.Now reading before any reader
// starts.
func (c *coarseClock) run(closed *atomic.Bool, tick func(prev, now int64)) {
	t := time.NewTicker(coarseTick)
	defer t.Stop()
	for range t.C {
		if closed.Load() {
			return
		}
		now := time.Now().UnixNano()
		tick(c.ns.Swap(now), now)
	}
}
