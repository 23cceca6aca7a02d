//go:build !linux

package corpus

const onLinux = false

func platform() bool { return onLinux }
