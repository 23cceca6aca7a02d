package dsps

import (
	"fmt"
	"time"
)

// spoutDecl and boltDecl record what the builder was told.
type spoutDecl struct {
	name        string
	factory     func() Spout
	parallelism int
	fields      []string
	execCost    time.Duration
}

type subscription struct {
	source   string
	grouping Grouping
}

type boltDecl struct {
	name         string
	factory      func() Bolt
	parallelism  int
	fields       []string
	execCost     time.Duration
	tickInterval time.Duration
	subs         []subscription
}

// Topology is an immutable validated dataflow graph ready for submission.
type Topology struct {
	Name   string
	spouts []*spoutDecl
	bolts  []*boltDecl
}

// TopologyBuilder assembles a Topology, mirroring Storm's builder API.
// Components are registered with factories so every task gets its own
// component instance (tasks run concurrently and must not share state).
type TopologyBuilder struct {
	name   string
	spouts []*spoutDecl
	bolts  []*boltDecl
	err    error
}

// NewTopologyBuilder starts a topology with the given name.
func NewTopologyBuilder(name string) *TopologyBuilder {
	return &TopologyBuilder{name: name}
}

func (b *TopologyBuilder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

func (b *TopologyBuilder) nameTaken(name string) bool {
	for _, s := range b.spouts {
		if s.name == name {
			return true
		}
	}
	for _, bd := range b.bolts {
		if bd.name == name {
			return true
		}
	}
	return false
}

// SpoutDeclarer configures a registered spout.
type SpoutDeclarer struct {
	b    *TopologyBuilder
	decl *spoutDecl
}

// SetSpout registers a spout with the given parallelism. factory is called
// once per task. outputFields declares the tuple schema the spout emits.
func (b *TopologyBuilder) SetSpout(name string, factory func() Spout, parallelism int, outputFields ...string) *SpoutDeclarer {
	decl := &spoutDecl{name: name, factory: factory, parallelism: parallelism, fields: outputFields}
	switch {
	case name == "":
		b.fail("dsps: empty spout name")
	case factory == nil:
		b.fail("dsps: spout %q has nil factory", name)
	case parallelism <= 0:
		b.fail("dsps: spout %q has parallelism %d", name, parallelism)
	case b.nameTaken(name):
		b.fail("dsps: duplicate component name %q", name)
	default:
		b.spouts = append(b.spouts, decl)
	}
	return &SpoutDeclarer{b: b, decl: decl}
}

// WithExecCost sets the simulated per-tuple service cost of the spout's
// emission path (used by the interference model). Negative values clamp
// to zero (no simulated cost).
func (d *SpoutDeclarer) WithExecCost(cost time.Duration) *SpoutDeclarer {
	if cost < 0 {
		cost = 0
	}
	d.decl.execCost = cost
	return d
}

// BoltDeclarer configures a registered bolt and its subscriptions.
type BoltDeclarer struct {
	b    *TopologyBuilder
	decl *boltDecl
}

// SetBolt registers a bolt with the given parallelism. factory is called
// once per task. outputFields declares the schema of tuples the bolt
// emits (may be empty for sinks).
func (b *TopologyBuilder) SetBolt(name string, factory func() Bolt, parallelism int, outputFields ...string) *BoltDeclarer {
	decl := &boltDecl{name: name, factory: factory, parallelism: parallelism, fields: outputFields}
	switch {
	case name == "":
		b.fail("dsps: empty bolt name")
	case factory == nil:
		b.fail("dsps: bolt %q has nil factory", name)
	case parallelism <= 0:
		b.fail("dsps: bolt %q has parallelism %d", name, parallelism)
	case b.nameTaken(name):
		b.fail("dsps: duplicate component name %q", name)
	default:
		b.bolts = append(b.bolts, decl)
	}
	return &BoltDeclarer{b: b, decl: decl}
}

// WithExecCost sets the simulated per-tuple service cost of the bolt.
// Negative values clamp to zero (no simulated cost).
func (d *BoltDeclarer) WithExecCost(cost time.Duration) *BoltDeclarer {
	if cost < 0 {
		cost = 0
	}
	d.decl.execCost = cost
	return d
}

// WithTickInterval delivers a system tick tuple (IsTick reports true) to
// every task of this bolt at the given interval, mirroring Storm's
// topology.tick.tuple.freq: windowed bolts slide on ticks so windows
// advance even when the data stream stalls. Ticks carry no simulated
// service cost and are not reliability-tracked.
func (d *BoltDeclarer) WithTickInterval(interval time.Duration) *BoltDeclarer {
	if interval < 0 {
		interval = 0
	}
	d.decl.tickInterval = interval
	return d
}

func (d *BoltDeclarer) subscribe(source string, g Grouping) *BoltDeclarer {
	d.decl.subs = append(d.decl.subs, subscription{source: source, grouping: g})
	return d
}

// ShuffleGrouping subscribes the bolt to source with round-robin
// distribution.
func (d *BoltDeclarer) ShuffleGrouping(source string) *BoltDeclarer {
	return d.subscribe(source, &ShuffleGrouping{})
}

// FieldsGrouping subscribes the bolt to source with hash partitioning on
// the named fields.
func (d *BoltDeclarer) FieldsGrouping(source string, fields ...string) *BoltDeclarer {
	if len(fields) == 0 {
		d.b.fail("dsps: bolt %q fields grouping with no fields", d.decl.name)
	}
	return d.subscribe(source, &FieldsGrouping{Fields: fields})
}

// GlobalGrouping subscribes the bolt to source with all tuples going to
// its first task.
func (d *BoltDeclarer) GlobalGrouping(source string) *BoltDeclarer {
	return d.subscribe(source, GlobalGrouping{})
}

// AllGrouping subscribes the bolt to source with full replication.
func (d *BoltDeclarer) AllGrouping(source string) *BoltDeclarer {
	return d.subscribe(source, AllGrouping{})
}

// DynamicGrouping subscribes the bolt to source with the paper's
// split-ratio grouping and returns the grouping handle the controller uses
// to update ratios at runtime.
func (d *BoltDeclarer) DynamicGrouping(source string) *DynamicGrouping {
	g := &DynamicGrouping{}
	d.subscribe(source, g)
	return g
}

// Build validates the graph and returns the immutable topology.
func (b *TopologyBuilder) Build() (*Topology, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.spouts) == 0 {
		return nil, fmt.Errorf("dsps: topology %q has no spouts", b.name)
	}
	names := map[string]bool{}
	for _, s := range b.spouts {
		names[s.name] = true
	}
	for _, bd := range b.bolts {
		names[bd.name] = true
	}
	for _, bd := range b.bolts {
		if len(bd.subs) == 0 {
			return nil, fmt.Errorf("dsps: bolt %q subscribes to nothing", bd.name)
		}
		for _, sub := range bd.subs {
			if !names[sub.source] {
				return nil, fmt.Errorf("dsps: bolt %q subscribes to unknown component %q", bd.name, sub.source)
			}
			if sub.source == bd.name {
				return nil, fmt.Errorf("dsps: bolt %q subscribes to itself", bd.name)
			}
		}
	}
	if err := checkAcyclic(b.bolts); err != nil {
		return nil, err
	}
	return &Topology{Name: b.name, spouts: b.spouts, bolts: b.bolts}, nil
}

// checkAcyclic rejects cycles among bolts (spouts cannot subscribe, so any
// cycle is bolt-only).
func checkAcyclic(bolts []*boltDecl) error {
	adj := map[string][]string{}
	for _, bd := range bolts {
		for _, sub := range bd.subs {
			adj[sub.source] = append(adj[sub.source], bd.name)
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(string) error
	visit = func(n string) error {
		color[n] = gray
		for _, next := range adj[n] {
			switch color[next] {
			case gray:
				return fmt.Errorf("dsps: topology contains a cycle through %q", next)
			case white:
				if err := visit(next); err != nil {
					return err
				}
			}
		}
		color[n] = black
		return nil
	}
	for _, bd := range bolts {
		if color[bd.name] == white {
			if err := visit(bd.name); err != nil {
				return err
			}
		}
	}
	return nil
}

// Components returns the names of all components in declaration order,
// spouts first.
func (t *Topology) Components() []string {
	out := make([]string, 0, len(t.spouts)+len(t.bolts))
	for _, s := range t.spouts {
		out = append(out, s.name)
	}
	for _, b := range t.bolts {
		out = append(out, b.name)
	}
	return out
}

// Spouts returns the names of the spout components in declaration order.
// Spout tasks are the ones whose counters satisfy the tuple-conservation
// invariant emitted = acked + failed at quiescence, which is what the
// chaos harness checks.
func (t *Topology) Spouts() []string {
	out := make([]string, 0, len(t.spouts))
	for _, s := range t.spouts {
		out = append(out, s.name)
	}
	return out
}

// Parallelism returns the declared parallelism of a component, or 0 if
// unknown.
func (t *Topology) Parallelism(component string) int {
	for _, s := range t.spouts {
		if s.name == component {
			return s.parallelism
		}
	}
	for _, b := range t.bolts {
		if b.name == component {
			return b.parallelism
		}
	}
	return 0
}
