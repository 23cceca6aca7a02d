// Package lib is the unused analyzer's test corpus: package-level
// functions that only their own package's tests reach must be reported;
// every other kind of reference keeps a function live.
package lib

// OnlyOwnTest is called by this package's in-package and external tests
// and nothing else.
func OnlyOwnTest() int { return 1 } // want: unused

// Uncalled has no reference at all.
func Uncalled() int { return 2 } // want: unused

// Countdown refers only to itself.
func Countdown(n int) int { // want: unused
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

// UsedByOtherTest is a shared test helper: another package's test calls it.
func UsedByOtherTest() int { return 3 }

// UsedAsValue is never called directly; another package stores it in a
// table, which a call graph would see no edge for.
func UsedAsValue() int { return 4 }

// UsedByBench is referenced only from a file the loader never loads, the
// way the separate bench/ module references the main module.
func UsedByBench() int { return 5 }

// Live is called from another package's non-test code.
func Live() int { return helper() }

// helper is unexported and called from Live.
func helper() int { return 6 }

// Method-bearing types are out of scope: only package-level functions
// are candidates.
type T struct{}

// Get is a method no one calls.
func (T) Get() int { return 7 }
