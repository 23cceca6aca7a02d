package user

import (
	"testing"

	"predstream/internal/analysis/testdata/unused/lib"
)

func TestShared(t *testing.T) {
	if lib.UsedByOtherTest() == 0 {
		t.Fatal("unreachable")
	}
}
