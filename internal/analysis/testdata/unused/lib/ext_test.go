package lib_test

import (
	"testing"

	"predstream/internal/analysis/testdata/unused/lib"
)

// An external test package is still the package's own test.
func TestExternal(t *testing.T) {
	if lib.OnlyOwnTest() == 0 {
		t.Fatal("unreachable")
	}
}
