// Package dsps is a Storm-like distributed stream data processing engine:
// spouts and bolts composed into topologies, executors scheduled onto
// workers and simulated cluster nodes, XOR-tree acking for at-least-once
// delivery, bounded queues with backpressure, pluggable stream groupings
// (including the paper's dynamic grouping), a co-location interference cost
// model, and runtime fault injection for misbehaving-worker experiments.
//
// It substitutes for Apache Storm in this reproduction: the predictive
// control framework in internal/core interacts with it exactly the way the
// paper's framework interacts with Storm — by reading multilevel runtime
// statistics and by updating dynamic-grouping split ratios.
//
// The engine is seed-deterministic: all randomness flows from explicitly
// seeded per-component sources (see DESIGN.md "Engine determinism"), and
// dspslint mechanically enforces the package's randomness, map-order, and
// hot-path clock discipline.
//
//dsps:deterministic
package dsps

import "fmt"

// Values is a tuple payload, one entry per declared output field.
type Values []any

// Tuple is a unit of data flowing through a topology.
//
// Engine-emitted tuples are allocated from a per-task arena (see
// tupleArena) and are never reused after release, so a bolt may retain a
// *Tuple beyond Execute (windowed bolts do) without it being mutated
// under its feet. Tuples are therefore plain data: nothing in the engine
// writes to one after it has been handed downstream.
type Tuple struct {
	// Values holds the payload, aligned with the emitting component's
	// declared fields.
	Values Values
	// SourceComponent names the component that emitted this tuple.
	SourceComponent string
	// SourceTask is the global task ID that emitted this tuple.
	SourceTask int

	// rootID is the acker tracking key of the spout tuple this descends
	// from; zero means unanchored (no reliability tracking).
	rootID uint64
	// edgeID is this tuple's random id in the XOR ack tree.
	edgeID uint64
	// fields is the emitting component's schema, for field lookups.
	fields []string

	// slot is the acker slot of rootID (anchored tuples only).
	slot uint32
}

// TickComponent is the SourceComponent of system tick tuples (see
// BoltDeclarer.WithTickInterval).
const TickComponent = "__tick"

// IsTick reports whether t is a system tick tuple.
func (t *Tuple) IsTick() bool { return t.SourceComponent == TickComponent }

// NewTickTuple builds a tick tuple: the executor's, and one for
// unit-testing windowed bolts.
func NewTickTuple() *Tuple { return &Tuple{SourceComponent: TickComponent} }

// NewTestTuple builds a tuple with the given schema and values outside the
// engine, for unit-testing bolts in isolation. Tuples built this way carry
// no reliability anchoring.
func NewTestTuple(fields []string, values ...any) *Tuple {
	return &Tuple{Values: values, fields: fields, SourceComponent: "test"}
}

// GetValue returns the value of the named field.
func (t *Tuple) GetValue(field string) (any, error) {
	for i, f := range t.fields {
		if f == field {
			if i < len(t.Values) {
				return t.Values[i], nil
			}
			break
		}
	}
	//dspslint:ignore allocfree field-miss error path; steady-state lookups return above without reaching it
	return nil, fmt.Errorf("dsps: tuple from %q has no field %q", t.SourceComponent, field)
}

// String returns the string value of the named field, erroring if the
// field is absent or not a string.
func (t *Tuple) String(field string) (string, error) {
	v, err := t.GetValue(field)
	if err != nil {
		return "", err
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("dsps: field %q is %T, not string", field, v)
	}
	return s, nil
}

// Int returns the int value of the named field.
func (t *Tuple) Int(field string) (int, error) {
	v, err := t.GetValue(field)
	if err != nil {
		return 0, err
	}
	n, ok := v.(int)
	if !ok {
		if n64, ok64 := v.(int64); ok64 {
			return int(n64), nil
		}
		return 0, fmt.Errorf("dsps: field %q is %T, not int", field, v)
	}
	return n, nil
}

// Float returns the float64 value of the named field.
func (t *Tuple) Float(field string) (float64, error) {
	v, err := t.GetValue(field)
	if err != nil {
		return 0, err
	}
	f, ok := v.(float64)
	if !ok {
		return 0, fmt.Errorf("dsps: field %q is %T, not float64", field, v)
	}
	return f, nil
}
