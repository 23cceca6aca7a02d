package user

import (
	"testing"

	"unusedcorpus/internal/lib"
)

func TestShared(t *testing.T) {
	var x lib.T
	if lib.UsedByOtherTest()+x.SharedMethod()+lib.Apply(lib.Config{Shared: 1}, lib.RunOptions{}) == 0 {
		t.Fatal("unreachable")
	}
}
