//go:build !linux

package dsps

import (
	"sync/atomic"
	"time"
)

// kernelSleepOK reports that this platform has no futexWait: every idle
// spout keeps the timer wait (see sleep_linux.go), so neither stub below
// is reached.
const kernelSleepOK = false

func futexWait(*atomic.Uint32, uint32, time.Duration) {}

func futexWake(*atomic.Uint32) {}
