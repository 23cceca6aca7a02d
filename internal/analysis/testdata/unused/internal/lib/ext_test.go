package lib_test

import (
	"testing"

	"unusedcorpus/internal/lib"
)

// An external test package is still the package's own test.
func TestExternal(t *testing.T) {
	if lib.OnlyOwnTest() == 0 {
		t.Fatal("unreachable")
	}
}
