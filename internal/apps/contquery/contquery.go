// Package contquery implements Continuous Queries, the second of the
// paper's two evaluation applications: a spout emits structured ad-event
// records, a query stage evaluates a registry of standing queries (filter
// + windowed aggregate, grouped by category) against every record, and a
// sink collects result rows. The spout→query edge can use the dynamic
// grouping so the controller can steer it — query evaluation is stateless
// per record apart from window state that is partitioned by query, so any
// task may process any record for the aggregate shapes used here
// (count/sum/avg are mergeable across tasks at the sink).
package contquery

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"predstream/internal/dsps"
	"predstream/internal/workload"
)

// AggOp is a windowed aggregate operator.
type AggOp int

const (
	// Count counts matching records.
	Count AggOp = iota
	// Sum totals the Value field of matching records.
	Sum
	// Avg averages the Value field of matching records.
	Avg
	// Max tracks the maximum Value of matching records.
	Max
)

// String implements fmt.Stringer.
func (op AggOp) String() string {
	switch op {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Avg:
		return "avg"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("AggOp(%d)", int(op))
	}
}

// Query is one standing continuous query: records passing the filter are
// aggregated over a sliding window, grouped by category.
type Query struct {
	// ID names the query in result rows.
	ID string
	// Category filters records to one category; empty matches all.
	Category string
	// MinValue filters records to Value >= MinValue.
	MinValue float64
	// Op is the windowed aggregate.
	Op AggOp
	// Window is the sliding window length; Slide the emission period.
	Window, Slide time.Duration
}

func (q Query) validate() error {
	if q.ID == "" {
		return fmt.Errorf("contquery: query with empty ID")
	}
	if q.Window <= 0 || q.Slide <= 0 || q.Slide > q.Window {
		return fmt.Errorf("contquery: query %s has window %v / slide %v", q.ID, q.Window, q.Slide)
	}
	return nil
}

// matches reports whether a record passes the query's filter.
func (q Query) matches(category string, value float64) bool {
	if q.Category != "" && category != q.Category {
		return false
	}
	return value >= q.MinValue
}

// slotAgg is one window slot's partial aggregate for one group key.
type slotAgg struct {
	count int
	sum   float64
	max   float64
}

// windowAgg maintains one query's sliding aggregate, per group key.
type windowAgg struct {
	q     Query
	slots []map[string]slotAgg
	cur   int
}

func newWindowAgg(q Query) *windowAgg {
	n := int(q.Window / q.Slide)
	if n < 1 {
		n = 1
	}
	w := &windowAgg{q: q, slots: make([]map[string]slotAgg, n)}
	for i := range w.slots {
		w.slots[i] = map[string]slotAgg{}
	}
	return w
}

func (w *windowAgg) add(key string, value float64) {
	s := w.slots[w.cur][key]
	s.count++
	s.sum += value
	if s.count == 1 || value > s.max {
		s.max = value
	}
	w.slots[w.cur][key] = s
}

// advance returns the aggregate per key over the full window (all slots
// including the current one), then rotates out the oldest slot.
func (w *windowAgg) advance() map[string]float64 {
	merged := map[string]slotAgg{}
	for _, slot := range w.slots {
		for k, s := range slot {
			m := merged[k]
			if m.count == 0 || s.max > m.max {
				m.max = s.max
			}
			m.count += s.count
			m.sum += s.sum
			merged[k] = m
		}
	}
	out := make(map[string]float64, len(merged))
	for k, s := range merged {
		switch w.q.Op {
		case Count:
			out[k] = float64(s.count)
		case Sum:
			out[k] = s.sum
		case Avg:
			if s.count > 0 {
				out[k] = s.sum / float64(s.count)
			}
		case Max:
			out[k] = s.max
		}
	}
	w.cur = (w.cur + 1) % len(w.slots)
	w.slots[w.cur] = map[string]slotAgg{}
	return out
}

// Spout emits ad-event records as tuples
// ("category", "user", "value", "ts").
type Spout struct {
	dsps.BaseSpout
	cfg Config

	collector dsps.SpoutCollector
	gen       *workload.RecordGenerator
	pacer     *workload.Pacer
	seq       int64
}

// Open implements dsps.Spout.
func (s *Spout) Open(ctx dsps.TopologyContext, c dsps.SpoutCollector) {
	s.collector = c
	rng := rand.New(rand.NewSource(s.cfg.Seed + int64(ctx.TaskID)))
	gen, err := workload.NewRecordGenerator(rng, s.cfg.Categories, s.cfg.Users)
	if err != nil {
		panic(fmt.Sprintf("contquery: %v", err))
	}
	s.gen = gen
	if s.cfg.Shape != nil {
		s.pacer = workload.NewPacer(s.cfg.Shape)
	}
}

// NextTuple implements dsps.Spout.
func (s *Spout) NextTuple() bool {
	if s.pacer != nil && !s.pacer.Allow() {
		return false
	}
	r := s.gen.Next()
	s.seq++
	s.collector.Emit(dsps.Values{r.Category, r.UserID, r.Value, r.At.UnixNano()}, s.seq)
	return true
}

// queryState is one task's window state for one standing query.
type queryState struct {
	q         Query
	agg       *windowAgg
	lastSlide time.Time
}

// QueryBolt evaluates the standing-query registry against every record
// and slides each query's window on system ticks (the topology configures
// a tick at the smallest slide), emitting ("query", "key", "value") rows.
// The registry is shared and mutable: queries added at runtime start
// evaluating on the task's next tuple/tick, removed queries stop, and
// window state survives for queries whose definition is unchanged.
type QueryBolt struct {
	dsps.BaseBolt
	cfg Config

	collector dsps.OutputCollector
	registry  *Registry
	states    map[string]*queryState
	order     []string // state iteration order (sorted query IDs)
	seenVer   uint64
	now       func() time.Time
}

// Prepare implements dsps.Bolt.
func (b *QueryBolt) Prepare(_ dsps.TopologyContext, c dsps.OutputCollector) {
	b.collector = c
	if b.now == nil {
		b.now = time.Now
	}
	b.registry = b.cfg.Registry
	b.states = map[string]*queryState{}
	b.order = nil
	b.seenVer = b.registry.Version() - 1 // force the first sync
	b.sync()
}

// sync reconciles local window state with the registry, keeping state for
// unchanged queries, resetting redefined ones, and dropping removed ones.
func (b *QueryBolt) sync() {
	ver := b.registry.Version()
	if ver == b.seenVer {
		return
	}
	b.seenVer = ver
	current := b.registry.List()
	next := make(map[string]*queryState, len(current))
	order := make([]string, 0, len(current))
	start := b.now()
	for _, q := range current {
		if st, ok := b.states[q.ID]; ok && st.q == q {
			next[q.ID] = st
		} else {
			next[q.ID] = &queryState{q: q, agg: newWindowAgg(q), lastSlide: start}
		}
		order = append(order, q.ID)
	}
	b.states = next
	b.order = order
}

// Execute implements dsps.Bolt.
func (b *QueryBolt) Execute(t *dsps.Tuple) {
	b.sync()
	if t.IsTick() {
		now := b.now()
		for _, id := range b.order {
			st := b.states[id]
			if now.Sub(st.lastSlide) >= st.q.Slide {
				st.lastSlide = now
				for key, v := range st.agg.advance() {
					b.collector.Emit(dsps.Values{st.q.ID, key, v})
				}
			}
		}
		return
	}
	category, err := t.String("category")
	if err != nil {
		b.collector.Fail()
		return
	}
	value, err := t.Float("value")
	if err != nil {
		b.collector.Fail()
		return
	}
	for _, id := range b.order {
		st := b.states[id]
		if st.q.matches(category, value) {
			key := category
			if st.q.Category != "" {
				key = st.q.Category
			}
			st.agg.add(key, value)
		}
	}
}

// ResultRow is one continuous-query output.
type ResultRow struct {
	Query string
	Key   string
	Value float64
	At    time.Time
}

// Sink collects result rows.
type Sink struct {
	dsps.BaseBolt
	mu   sync.Mutex
	rows []ResultRow
}

// Prepare implements dsps.Bolt.
func (s *Sink) Prepare(dsps.TopologyContext, dsps.OutputCollector) {}

// Execute implements dsps.Bolt.
func (s *Sink) Execute(t *dsps.Tuple) {
	q, err1 := t.String("query")
	k, err2 := t.String("key")
	v, err3 := t.Float("value")
	if err1 != nil || err2 != nil || err3 != nil {
		return
	}
	s.mu.Lock()
	s.rows = append(s.rows, ResultRow{Query: q, Key: k, Value: v, At: time.Now()})
	s.mu.Unlock()
}

// Rows returns a copy of all collected result rows.
func (s *Sink) Rows() []ResultRow {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ResultRow, len(s.rows))
	copy(out, s.rows)
	return out
}

// Latest returns the most recent value per (query, key).
func (s *Sink) Latest() map[string]map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]map[string]float64{}
	for _, r := range s.rows {
		if out[r.Query] == nil {
			out[r.Query] = map[string]float64{}
		}
		out[r.Query][r.Key] = r.Value
	}
	return out
}

// queryTasks is the query stage parallelism.
const queryTasks = 4

// defaultQueries is the standing-query set a Config without a Registry
// runs: per-category click count and overall high-value average.
var defaultQueries = []Query{
	{ID: "clicks-by-category", Op: Count, Window: 4 * time.Second, Slide: time.Second},
	{ID: "high-value-avg", MinValue: 50, Op: Avg, Window: 4 * time.Second, Slide: time.Second},
}

// Config assembles the topology.
type Config struct {
	// Categories and Users define the record universe; defaults are five
	// ad categories and 10000 users.
	Categories []string
	Users      int
	// Registry optionally supplies a shared mutable registry: queries
	// added or removed through it take effect at runtime across every
	// query task. Nil runs defaultQueries. The tick interval is derived
	// from the *initial* registry contents.
	Registry *Registry
	// Shape paces the spout; nil emits at maximum speed.
	Shape workload.RateShape
	// QueryCost is the simulated per-record evaluation cost; default
	// 300µs (the query stage is the heavy stage in this application).
	// Negative means no simulated cost.
	QueryCost time.Duration
	// Dynamic selects the controllable dynamic grouping on spout→query.
	Dynamic bool
	// Seed drives the record generator.
	Seed int64
}

func (c Config) withDefaults() Config {
	if len(c.Categories) == 0 {
		c.Categories = []string{"sports", "news", "tech", "travel", "music"}
	}
	if c.Users <= 0 {
		c.Users = 10000
	}
	if c.QueryCost == 0 {
		c.QueryCost = 300 * time.Microsecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Registry == nil {
		c.Registry, _ = NewRegistry(defaultQueries...) // valid by construction
	}
	return c
}

// Build assembles the Continuous Queries topology, returning the topology,
// the sink (for reading results), and the dynamic grouping handle when
// cfg.Dynamic (nil otherwise).
func Build(cfg Config) (*dsps.Topology, *Sink, *dsps.DynamicGrouping, error) {
	cfg = cfg.withDefaults()
	initial := cfg.Registry.List()
	if len(initial) == 0 {
		return nil, nil, nil, fmt.Errorf("contquery: registry has no queries")
	}
	sink := &Sink{}
	b := dsps.NewTopologyBuilder("continuous-queries")
	b.SetSpout("records", func() dsps.Spout { return &Spout{cfg: cfg} }, 1,
		"category", "user", "value", "ts")
	minSlide := initial[0].Slide
	for _, q := range initial[1:] {
		if q.Slide < minSlide {
			minSlide = q.Slide
		}
	}
	query := b.SetBolt("query", func() dsps.Bolt { return &QueryBolt{cfg: cfg} }, queryTasks,
		"query", "key", "value").
		WithExecCost(cfg.QueryCost).
		WithTickInterval(minSlide)
	var dg *dsps.DynamicGrouping
	if cfg.Dynamic {
		dg = query.DynamicGrouping("records")
	} else {
		query.ShuffleGrouping("records")
	}
	b.SetBolt("sink", func() dsps.Bolt { return sink }, 1).
		GlobalGrouping("query")
	topo, err := b.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	return topo, sink, dg, nil
}
