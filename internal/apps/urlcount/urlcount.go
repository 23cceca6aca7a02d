// Package urlcount implements Windowed URL Count, the first of the
// paper's two evaluation applications: a spout emits Zipf-distributed URL
// hits, a parse stage extracts hostnames, a sliding-window count stage
// maintains per-host counts over a time window, and a report sink gathers
// the top hosts. The spout→parse edge can use the controllable dynamic
// grouping so the predictive control framework can steer it.
package urlcount

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"predstream/internal/dsps"
	"predstream/internal/workload"
)

// SlidingCounter counts string keys over a sliding window of fixed slots.
// Each Advance rotates out the oldest slot; totals always cover the last
// NSlots advances. It is the windowing core of the count bolt, separated
// for direct unit testing.
type SlidingCounter struct {
	slots   []map[string]int
	current int
}

// NewSlidingCounter builds a counter with n slots; n must be positive.
func NewSlidingCounter(n int) *SlidingCounter {
	if n <= 0 {
		panic(fmt.Sprintf("urlcount: invalid slot count %d", n))
	}
	s := &SlidingCounter{slots: make([]map[string]int, n)}
	for i := range s.slots {
		s.slots[i] = map[string]int{}
	}
	return s
}

// Add counts one occurrence of key in the current slot.
func (s *SlidingCounter) Add(key string) { s.slots[s.current][key]++ }

// Advance rotates to the next slot, clearing what it previously held.
func (s *SlidingCounter) Advance() {
	s.current = (s.current + 1) % len(s.slots)
	s.slots[s.current] = map[string]int{}
}

// Totals returns the per-key counts over the whole window.
func (s *SlidingCounter) Totals() map[string]int {
	out := map[string]int{}
	for _, slot := range s.slots {
		for k, v := range slot {
			out[k] += v
		}
	}
	return out
}

// Spout emits URL hit tuples ("url") paced by a rate shape. Each task
// draws from its own seeded generator.
type Spout struct {
	dsps.BaseSpout
	cfg Config

	collector dsps.SpoutCollector
	gen       *workload.URLGenerator
	pacer     *workload.Pacer
	seq       int64
}

// Open implements dsps.Spout.
func (s *Spout) Open(ctx dsps.TopologyContext, c dsps.SpoutCollector) {
	s.collector = c
	rng := rand.New(rand.NewSource(s.cfg.Seed + int64(ctx.TaskID)))
	gen, err := workload.NewURLGenerator(rng, s.cfg.URLs, s.cfg.ZipfS)
	if err != nil {
		panic(fmt.Sprintf("urlcount: %v", err))
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
	s.seq++
	s.collector.Emit(dsps.Values{s.gen.Next()}, s.seq)
	return true
}

// ParseBolt extracts the hostname from each URL and emits ("host").
type ParseBolt struct {
	dsps.BaseBolt
	collector dsps.OutputCollector
}

// Prepare implements dsps.Bolt.
func (b *ParseBolt) Prepare(_ dsps.TopologyContext, c dsps.OutputCollector) { b.collector = c }

// Execute implements dsps.Bolt.
func (b *ParseBolt) Execute(t *dsps.Tuple) {
	url, err := t.String("url")
	if err != nil {
		b.collector.Fail()
		return
	}
	b.collector.Emit(dsps.Values{HostOf(url)})
}

// HostOf extracts the hostname from a URL without net/url's overhead (the
// generator's URLs are well-formed).
func HostOf(url string) string {
	rest := url
	for i := 0; i+2 < len(url); i++ {
		if url[i] == ':' && url[i+1] == '/' && url[i+2] == '/' {
			rest = url[i+3:]
			break
		}
	}
	for i := 0; i < len(rest); i++ {
		if rest[i] == '/' {
			return rest[:i]
		}
	}
	return rest
}

// CountBolt maintains sliding-window counts per host and emits
// ("host", count) totals on every system tick (the topology configures a
// tick each Slide). Sliding on ticks rather than on data arrival means
// windows advance — and stale hosts expire — even when the stream stalls.
type CountBolt struct {
	dsps.BaseBolt
	cfg Config

	collector dsps.OutputCollector
	counter   *SlidingCounter
}

// Prepare implements dsps.Bolt.
func (b *CountBolt) Prepare(_ dsps.TopologyContext, c dsps.OutputCollector) {
	b.collector = c
	slots := int(b.cfg.Window / b.cfg.Slide)
	if slots < 1 {
		slots = 1
	}
	b.counter = NewSlidingCounter(slots)
}

// Execute implements dsps.Bolt.
func (b *CountBolt) Execute(t *dsps.Tuple) {
	if t.IsTick() {
		// Emit the full window (including the slot about to rotate out),
		// then slide.
		for h, c := range b.counter.Totals() {
			b.collector.Emit(dsps.Values{h, c})
		}
		b.counter.Advance()
		return
	}
	host, err := t.String("host")
	if err != nil {
		b.collector.Fail()
		return
	}
	b.counter.Add(host)
}

// Report aggregates the latest windowed counts across count tasks and
// serves the current top hosts. It is the topology's sink.
type Report struct {
	dsps.BaseBolt
	mu     sync.Mutex
	latest map[string]int
}

// Prepare implements dsps.Bolt.
func (r *Report) Prepare(dsps.TopologyContext, dsps.OutputCollector) {
	r.mu.Lock()
	r.latest = map[string]int{}
	r.mu.Unlock()
}

// Execute implements dsps.Bolt.
func (r *Report) Execute(t *dsps.Tuple) {
	host, err := t.String("host")
	if err != nil {
		return
	}
	count, err := t.Int("count")
	if err != nil {
		return
	}
	r.mu.Lock()
	r.latest[host] = count
	r.mu.Unlock()
}

// HostCount is one row of the report.
type HostCount struct {
	Host  string
	Count int
}

// Top returns the n hosts with the highest current window counts.
func (r *Report) Top(n int) []HostCount {
	r.mu.Lock()
	rows := make([]HostCount, 0, len(r.latest))
	for h, c := range r.latest {
		rows = append(rows, HostCount{Host: h, Count: c})
	}
	r.mu.Unlock()
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].Host < rows[j].Host
	})
	if n < len(rows) {
		rows = rows[:n]
	}
	return rows
}

// countTasks is the count stage parallelism.
const countTasks = 4

// Config assembles the topology.
type Config struct {
	// URLs is the URL universe size; default 1000.
	URLs int
	// ZipfS is the Zipf exponent; default 1.1.
	ZipfS float64
	// Shape paces the spout; nil emits at maximum speed.
	Shape workload.RateShape
	// Window and Slide define the sliding count window; defaults 10s / 2s.
	Window, Slide time.Duration
	// ParseTasks sets the parse stage parallelism; default 4. The count
	// stage runs countTasks.
	ParseTasks int
	// ParseCost and CountCost are the simulated per-tuple service costs;
	// defaults 200µs / 100µs. Negative values mean no simulated cost.
	ParseCost, CountCost time.Duration
	// Dynamic selects the controllable dynamic grouping on spout→parse
	// (the edge the paper's controller steers); false uses shuffle.
	Dynamic bool
	// Seed drives the URL generator.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.URLs <= 0 {
		c.URLs = 1000
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.1
	}
	if c.Window <= 0 {
		c.Window = 10 * time.Second
	}
	if c.Slide <= 0 {
		c.Slide = 2 * time.Second
	}
	if c.ParseTasks <= 0 {
		c.ParseTasks = 4
	}
	if c.ParseCost == 0 {
		c.ParseCost = 200 * time.Microsecond
	}
	if c.CountCost == 0 {
		c.CountCost = 100 * time.Microsecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Build assembles the Windowed URL Count topology. It returns the
// topology, the report sink (for reading results), and — when cfg.Dynamic
// — the dynamic grouping handle for the controller (nil otherwise).
func Build(cfg Config) (*dsps.Topology, *Report, *dsps.DynamicGrouping, error) {
	cfg = cfg.withDefaults()
	report := &Report{}
	b := dsps.NewTopologyBuilder("windowed-url-count")
	b.SetSpout("urls", func() dsps.Spout { return &Spout{cfg: cfg} }, 1, "url")
	parse := b.SetBolt("parse", func() dsps.Bolt { return &ParseBolt{} }, cfg.ParseTasks, "host").
		WithExecCost(cfg.ParseCost)
	var dg *dsps.DynamicGrouping
	if cfg.Dynamic {
		dg = parse.DynamicGrouping("urls")
	} else {
		parse.ShuffleGrouping("urls")
	}
	b.SetBolt("count", func() dsps.Bolt { return &CountBolt{cfg: cfg} }, countTasks, "host", "count").
		FieldsGrouping("parse", "host").
		WithExecCost(cfg.CountCost).
		WithTickInterval(cfg.Slide)
	b.SetBolt("report", func() dsps.Bolt { return report }, 1).
		GlobalGrouping("count")
	topo, err := b.Build()
	if err != nil {
		return nil, nil, nil, err
	}
	return topo, report, dg, nil
}
