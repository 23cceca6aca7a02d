package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket distribution instrument that doubles as its
// own single-sample Collector. Observations are lock-free (one atomic add
// per bucket plus a CAS loop for the sum), so it is safe to call Observe
// from latency-critical paths. Bucket bounds are fixed at construction;
// the final implicit bucket catches everything above the last bound.
type Histogram struct {
	name   string
	help   string
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is overflow
	sum    atomic.Uint64   // float64 bits
}

// NewHistogram returns a histogram with the given finite upper bucket
// bounds, which must be strictly increasing and non-empty; register it
// with Registry.Register. Panics on invalid bounds so misconfiguration
// fails at startup, not at scrape time.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	own := make([]float64, len(bounds))
	copy(own, bounds)
	for i, b := range own {
		if math.IsNaN(b) || math.IsInf(b, 0) || (i > 0 && b <= own[i-1]) {
			panic("obs: histogram bounds must be finite and strictly increasing")
		}
	}
	return &Histogram{
		name:   name,
		help:   help,
		bounds: own,
		counts: make([]atomic.Uint64, len(own)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = overflow
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Snapshot returns a point-in-time copy of the distribution. Buckets are
// read one by one without a global lock, so under concurrent Observe the
// snapshot is approximate (each bucket individually consistent).
func (h *Histogram) Snapshot() HistogramData {
	d := HistogramData{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		d.Counts[i] = h.counts[i].Load()
	}
	return d
}

// Quantile estimates the q-quantile (q in [0,1]) from the current bucket
// counts by linear interpolation inside the bucket where the cumulative
// count crosses q. Values in the overflow bucket are reported as the last
// finite bound (the histogram cannot see beyond it). Returns NaN when the
// histogram is empty.
func (h *Histogram) Quantile(q float64) float64 {
	d := h.Snapshot()
	return QuantileOf(&d, q)
}

// QuantileOf is Histogram.Quantile over an already-taken snapshot, so one
// snapshot can serve several quantiles consistently.
func QuantileOf(d *HistogramData, q float64) float64 {
	total := d.Total()
	if total == 0 || math.IsNaN(q) {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := 0.0
	for i, c := range d.Counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i >= len(d.Bounds) {
			// Overflow bucket: unbounded above, report the last bound.
			return d.Bounds[len(d.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = d.Bounds[i-1]
		}
		hi := d.Bounds[i]
		if c == 0 || rank <= prev {
			return lo
		}
		return lo + (hi-lo)*(rank-prev)/float64(c)
	}
	return d.Bounds[len(d.Bounds)-1]
}

// Collect implements Collector.
func (h *Histogram) Collect() []Family {
	d := h.Snapshot()
	return []Family{{
		Name:    h.name,
		Help:    h.help,
		Type:    TypeHistogram,
		Samples: []Sample{{Hist: &d}},
	}}
}

// ExponentialBounds returns n strictly increasing bucket bounds starting
// at start and multiplying by factor, the usual shape for latency
// histograms. Panics unless start > 0, factor > 1, and n >= 1.
func ExponentialBounds(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExponentialBounds needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}
