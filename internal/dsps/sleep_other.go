//go:build !linux

package dsps

import "time"

// kernelSleepOK reports that this platform has no kernelSleep: every idle
// spout keeps the timer wait (see sleep_linux.go).
const kernelSleepOK = false

func kernelSleep(time.Duration) {}
