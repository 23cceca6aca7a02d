// Package corpus is the loader's build-constraint corpus: each name is
// declared once per platform, in files that no one build selects together.
package corpus

const onLinux = true

func platform() bool { return onLinux }
