// Package user references lib from non-test code.
package user

import "predstream/internal/analysis/testdata/unused/lib"

// Handlers holds lib.UsedAsValue as a func value.
var Handlers = []func() int{lib.UsedAsValue}

// Total calls lib.Live.
var Total = lib.Live()
