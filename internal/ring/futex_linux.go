package ring

import (
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// kernelWaitOK reports that futexWait is a real kernel-timed wait here.
// Linux is where it is needed: its netpoller waits in epoll_wait, whose
// timeout is in whole milliseconds, while kqueue platforms time their
// waits in nanoseconds already.
const kernelWaitOK = true

// futex(2) operations on a word private to this process.
const (
	futexWaitPrivate = 0 | 128 // FUTEX_WAIT | FUTEX_PRIVATE_FLAG
	futexWakePrivate = 1 | 128 // FUTEX_WAKE | FUTEX_PRIVATE_FLAG
)

// futexWait blocks the calling thread in futex(2) for about d while *w
// holds val. It returns at once if *w no longer holds val, and early when
// futexWake(w) runs meanwhile.
func futexWait(w *atomic.Uint32, val uint32, d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	// EAGAIN (*w changed), ETIMEDOUT and EINTR all just end the wait.
	_, _, _ = syscall.Syscall6(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(w)),
		futexWaitPrivate, uintptr(val), uintptr(unsafe.Pointer(&ts)), 0, 0)
}

// futexWake wakes one thread blocked in futexWait on w.
func futexWake(w *atomic.Uint32) {
	_, _, _ = syscall.Syscall(syscall.SYS_FUTEX, uintptr(unsafe.Pointer(w)), futexWakePrivate, 1)
}
