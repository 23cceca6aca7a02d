//go:build !linux

package ring

import (
	"sync/atomic"
	"time"
)

// kernelWaitOK reports that this platform has no futexWait: every timed
// wait blocks on the channel and the timer (see futex_linux.go), so
// neither stub below is reached.
const kernelWaitOK = false

func futexWait(*atomic.Uint32, uint32, time.Duration) {}

func futexWake(*atomic.Uint32) {}
