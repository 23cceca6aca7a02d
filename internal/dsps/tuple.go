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

// laneKind tags which typed payload lane a tuple uses instead of the
// boxed Values slice. Lane tuples are emitted through the typed collector
// methods (EmitInt64, EmitFloat64); the generic accessors fall back to
// boxing only when asked for an `any` view, so a lane tuple's hot path
// never allocates.
type laneKind uint8

const (
	laneNone laneKind = iota
	laneI64
	laneF64
)

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

	// lane/i64/f64 are the struct-of-arrays typed payload lanes: a tuple
	// emitted via EmitInt64/EmitFloat64 carries its single-field payload
	// here with Values nil, so the emit path never boxes the value into an
	// interface. The generic accessors transparently view lane payloads.
	lane laneKind
	// slot is the acker slot of rootID (anchored tuples only). It sits in
	// the padding after lane, so carrying it costs the tuple no space.
	slot uint32
	i64  int64
	f64  float64
}

// TickComponent is the SourceComponent of system tick tuples (see
// BoltDeclarer.WithTickInterval).
const TickComponent = "__tick"

// IsTick reports whether t is a system tick tuple.
func (t *Tuple) IsTick() bool { return t.SourceComponent == TickComponent }

// NewTickTuple builds a tick tuple, for unit-testing windowed bolts.
func NewTickTuple() *Tuple { return &Tuple{SourceComponent: TickComponent} }

// NewTestTuple builds a tuple with the given schema and values outside the
// engine, for unit-testing bolts in isolation. Tuples built this way carry
// no reliability anchoring.
func NewTestTuple(fields []string, values ...any) *Tuple {
	return &Tuple{Values: values, fields: fields, SourceComponent: "test"}
}

// Int64 returns the tuple's int64 lane payload. The second result is
// false when the tuple was not emitted through EmitInt64. This is the
// allocation-free read path matching the typed emit path.
func (t *Tuple) Int64() (int64, bool) {
	if t.lane == laneI64 {
		return t.i64, true
	}
	return 0, false
}

// Float64 returns the tuple's float64 lane payload; false when the tuple
// was not emitted through EmitFloat64.
func (t *Tuple) Float64() (float64, bool) {
	if t.lane == laneF64 {
		return t.f64, true
	}
	return 0, false
}

// laneValue boxes a lane payload for the generic accessors. Compat path
// only — lane-aware readers use Int64/Float64.
func (t *Tuple) laneValue() any {
	switch t.lane {
	case laneI64:
		return t.i64
	case laneF64:
		return t.f64
	}
	return nil
}

// GetValue returns the value of the named field. Lane tuples (emitted via
// EmitInt64/EmitFloat64) expose their payload under the component's first
// declared field; reading one through this generic view boxes the value.
func (t *Tuple) GetValue(field string) (any, error) {
	for i, f := range t.fields {
		if f == field {
			if t.Values == nil && t.lane != laneNone && i == 0 {
				return t.laneValue(), nil
			}
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

// Int returns the int value of the named field. Lane tuples emitted via
// EmitInt64 are read without boxing.
func (t *Tuple) Int(field string) (int, error) {
	if t.lane == laneI64 && t.Values == nil && len(t.fields) > 0 && t.fields[0] == field {
		return int(t.i64), nil
	}
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

// Float returns the float64 value of the named field. Lane tuples emitted
// via EmitFloat64 are read without boxing.
func (t *Tuple) Float(field string) (float64, error) {
	if t.lane == laneF64 && t.Values == nil && len(t.fields) > 0 && t.fields[0] == field {
		return t.f64, nil
	}
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

// Fields returns the field names of the tuple's schema.
func (t *Tuple) Fields() []string {
	out := make([]string, len(t.fields))
	copy(out, t.fields)
	return out
}
