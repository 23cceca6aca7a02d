package lib

import "testing"

func TestOwn(t *testing.T) {
	if OnlyOwnTest()+Countdown(2)+Reserved() == 0 {
		t.Fatal("unreachable")
	}
}
