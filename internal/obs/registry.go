// Package obs is the operator-facing observability layer: a pull-based
// metrics registry with a Prometheus text exporter, exporters for the
// engine's sampled tuple traces (JSON and Chrome trace_event), a
// slog-style structured event logger with a deterministic memory sink,
// and an HTTP server tying them together with JSON status endpoints and
// net/http/pprof.
//
// The package is strictly an observer: it imports the engine
// (internal/dsps), the controller (internal/core), the chaos harness
// (internal/chaos), and the feature pipeline (internal/telemetry), never
// the reverse. Engine events reach obs through the dsps.EventSink
// interface, which *Logger satisfies structurally; metrics are gathered
// from point-in-time snapshots at scrape time, so registering collectors
// adds no locking to any hot path.
//
//dsps:deterministic
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// MetricType is the Prometheus exposition type of a metric family.
type MetricType string

const (
	// TypeCounter marks monotonically non-decreasing cumulative values.
	TypeCounter MetricType = "counter"
	// TypeGauge marks values that can go up and down.
	TypeGauge MetricType = "gauge"
	// TypeHistogram marks bucketed distributions with a sum and count.
	TypeHistogram MetricType = "histogram"
)

// Label is one name/value pair attached to a Sample. Collectors must
// emit labels in a fixed order (samples are compared and rendered
// positionally, not by name).
type Label struct {
	Name  string
	Value string
}

// HistogramData is one histogram sample: per-bucket counts (not
// cumulative) with finite upper bounds in Bounds, plus an implicit
// overflow bucket — len(Counts) == len(Bounds)+1 — and the sum of all
// observations. The Prometheus encoder derives the cumulative _bucket,
// _sum, and _count series from it.
type HistogramData struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
}

// Total returns the total observation count across every bucket.
func (h *HistogramData) Total() uint64 {
	var t uint64
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Sample is one time series point of a Family: a label set plus either a
// scalar Value (counter/gauge) or a Hist (histogram).
type Sample struct {
	Labels []Label
	Value  float64
	Hist   *HistogramData
}

// Family is one named metric with its help text, type, and samples.
// Names must match Prometheus conventions: [a-zA-Z_:][a-zA-Z0-9_:]*.
type Family struct {
	Name    string
	Help    string
	Type    MetricType
	Samples []Sample
}

// Collector produces metric families at scrape time. Collect must be
// safe for concurrent use and should return families and samples in a
// deterministic order (the registry sorts families by name but preserves
// sample order within a family).
type Collector interface {
	Collect() []Family
}

// CollectorFunc adapts a plain function to the Collector interface.
type CollectorFunc func() []Family

// Collect implements Collector.
func (f CollectorFunc) Collect() []Family { return f() }

// Registry aggregates collectors and renders their output. The zero
// value is not usable; call NewRegistry.
type Registry struct {
	mu         sync.Mutex
	collectors []Collector
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Register adds a collector; its families appear in subsequent Gather
// calls. Registration order is irrelevant (Gather sorts by family name).
func (r *Registry) Register(c Collector) {
	if c == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, c)
	r.mu.Unlock()
}

// Gather invokes every collector and returns the merged families sorted
// by name. Families with the same name are merged into one (the first
// collector's help and type win), so two collectors may safely
// contribute samples to a shared family.
func (r *Registry) Gather() []Family {
	r.mu.Lock()
	collectors := make([]Collector, len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()

	var out []Family
	index := map[string]int{}
	for _, c := range collectors {
		for _, f := range c.Collect() {
			if i, ok := index[f.Name]; ok {
				out[i].Samples = append(out[i].Samples, f.Samples...)
				continue
			}
			index[f.Name] = len(out)
			out = append(out, f)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Counter is a monotonically increasing instrument that doubles as its
// own single-sample Collector. Safe for concurrent use.
type Counter struct {
	name string
	help string
	v    atomic.Uint64
}

// NewCounter returns a counter; register it with Registry.Register.
func NewCounter(name, help string) *Counter {
	return &Counter{name: name, help: help}
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Collect implements Collector.
func (c *Counter) Collect() []Family {
	return []Family{{
		Name:    c.name,
		Help:    c.help,
		Type:    TypeCounter,
		Samples: []Sample{{Value: float64(c.v.Load())}},
	}}
}
