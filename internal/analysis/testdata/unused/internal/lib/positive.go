// Package lib is the unused analyzer's test corpus: package-level
// functions and methods that only their own package's tests reach must
// be reported; every other kind of reference keeps them live.
package lib

import (
	"encoding/gob"
	"fmt"
	"io"
)

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

// T carries methods with every kind of reference.
type T struct{}

// Unreached is a method no one calls.
func (T) Unreached() int { return 7 } // want: unused

// OwnTestMethod is called only by this package's test.
func (T) OwnTestMethod() int { return 8 } // want: unused

// SharedMethod is called by another package's test.
func (T) SharedMethod() int { return 9 }

// Tick is stored as a method value in another package's func field.
func (T) Tick() int { return 10 }

// Benched is named only by a selector in a file the loader never loads.
func (T) Benched() int { return 11 }

// String satisfies fmt.Stringer; fmt calls it, no selector does.
func (T) String() string { return "t" }

// Describe renders t through fmt.
func Describe(t T) string { return fmt.Sprint(t) }

// Box is generic: uses of Box[int].Put resolve to Box[E].Put.
type Box[E any] struct{ v E }

// Put is called through an instantiation.
func (b *Box[E]) Put(v E) { b.v = v }

// Unboxed has no caller on any instantiation.
func (b *Box[E]) Unboxed() E { return b.v } // want: unused

// Err satisfies the predeclared error interface.
type Err struct{}

func (Err) Error() string { return "err" }

// Blob satisfies gob.GobEncoder and gob.GobDecoder.
type Blob struct{ n byte }

func (b Blob) GobEncode() ([]byte, error) { return []byte{b.n}, nil }

func (b *Blob) GobDecode(p []byte) error {
	if len(p) != 1 {
		return Err{}
	}
	b.n = p[0]
	return nil
}

// Decode reads a Blob with gob.
func Decode(r io.Reader) (Blob, error) {
	var b Blob
	err := gob.NewDecoder(r).Decode(&b)
	return b, err
}

// Acker is a module interface that no single type below implements on
// its own.
type Acker interface {
	Ack(id int)
	Fail(id int)
}

// Base supplies Ack to whatever embeds it; no selector names Base.Ack.
type Base struct{}

func (Base) Ack(int) {}
