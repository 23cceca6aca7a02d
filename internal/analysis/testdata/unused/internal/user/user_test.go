package user

import (
	"testing"

	"unusedcorpus/internal/lib"
)

func TestShared(t *testing.T) {
	var x lib.T
	if lib.UsedByOtherTest()+x.SharedMethod() == 0 {
		t.Fatal("unreachable")
	}
}
