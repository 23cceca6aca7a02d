package lib

import "testing"

func TestOwn(t *testing.T) {
	var x T
	if OnlyOwnTest()+Countdown(2)+Reserved()+x.OwnTestMethod()+Apply(Config{OwnTest: 1}, RunOptions{}) == 0 {
		t.Fatal("unreachable")
	}
}
