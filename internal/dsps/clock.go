package dsps

import (
	"sync/atomic"
	"time"
)

// coarseTick is the refresh period of the coarse clock. Hot-path
// timestamps (enqueue stamps, histogram observes, acker start/complete
// times) are accurate to within one tick; anything needing sub-tick
// precision (the acker timeout sweep cutoff) keeps using time.Now.
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

// run refreshes the clock until closed is set. The caller must have
// seeded the clock with an initial time.Now reading before any reader
// starts.
func (c *coarseClock) run(closed *atomic.Bool) {
	t := time.NewTicker(coarseTick)
	defer t.Stop()
	for range t.C {
		if closed.Load() {
			return
		}
		c.ns.Store(time.Now().UnixNano())
	}
}
