// Package user references lib from non-test code.
package user

import "unusedcorpus/internal/lib"

// Handlers holds lib.UsedAsValue as a func value.
var Handlers = []func() int{lib.UsedAsValue}

// Total calls lib.Live.
var Total = lib.Live()

// Hooks holds a method value in a func field.
type Hooks struct{ OnTick func() int }

// Default stores lib.T.Tick without calling it.
var Default = Hooks{OnTick: lib.T{}.Tick}

// Spout implements lib.Acker through its embedded lib.Base.
type Spout struct{ lib.Base }

// Fail completes lib.Acker's method set.
func (Spout) Fail(int) {}

var _ lib.Acker = Spout{}

// Described and DecodeErr keep drive live.
var Described, DecodeErr = drive()

// drive calls the corpus's remaining entry points.
func drive() (string, error) {
	var b lib.Box[int]
	b.Put(1)
	_, err := lib.Decode(nil)
	return lib.Describe(lib.T{}), err
}
