package dsps

import (
	"syscall"
	"time"
)

// kernelSleepOK reports that kernelSleep is a real kernel-timed sleep here.
// Linux is where it is needed: its netpoller waits in epoll_wait, whose
// timeout is in whole milliseconds, while kqueue platforms time their
// waits in nanoseconds already.
const kernelSleepOK = true

// kernelSleep blocks the calling thread in nanosleep(2) for about d. Unlike
// a runtime timer, which the netpoller rounds up to whole milliseconds, it
// honours sub-millisecond durations.
func kernelSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // EINTR only cuts the sleep short
}
