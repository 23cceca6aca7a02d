// Package workload generates the synthetic input streams the evaluation
// applications consume: Zipf-distributed URL streams for Windowed URL
// Count, structured ad-event records for Continuous Queries, and the
// time-varying rate shapes (constant, sinusoidal, bursty, ramp) that make
// performance series worth predicting.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// URLGenerator produces URLs with Zipf-distributed popularity, the
// standard model for web-access workloads.
type URLGenerator struct {
	zipf *rand.Zipf
	n    int
}

// NewURLGenerator returns a generator over n distinct URLs with Zipf
// exponent s (> 1; typical web traces use 1.01–1.3).
func NewURLGenerator(rng *rand.Rand, n int, s float64) (*URLGenerator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("workload: need at least one URL, got %d", n)
	}
	if s <= 1 {
		return nil, fmt.Errorf("workload: zipf exponent %v must be > 1", s)
	}
	return &URLGenerator{zipf: rand.NewZipf(rng, s, 1, uint64(n-1)), n: n}, nil
}

// Next returns the next URL.
func (g *URLGenerator) Next() string {
	return fmt.Sprintf("http://site-%04d.example.com/page", g.zipf.Uint64())
}

// Record is one event for the Continuous Queries application: an ad-click
// style record with a category, a user, and a numeric value, mirroring the
// "continuous queries over a stream of structured records" workload class
// the paper evaluates.
type Record struct {
	Category string
	UserID   int
	Value    float64
	At       time.Time
}

// RecordGenerator produces Records with a skewed category distribution.
type RecordGenerator struct {
	rng        *rand.Rand
	categories []string
	zipf       *rand.Zipf
	users      int
	now        func() time.Time
}

// NewRecordGenerator returns a generator over the given categories and
// user universe.
func NewRecordGenerator(rng *rand.Rand, categories []string, users int) (*RecordGenerator, error) {
	if len(categories) == 0 {
		return nil, fmt.Errorf("workload: no categories")
	}
	if users <= 0 {
		return nil, fmt.Errorf("workload: need at least one user, got %d", users)
	}
	var zipf *rand.Zipf
	if len(categories) > 1 {
		zipf = rand.NewZipf(rng, 1.2, 1, uint64(len(categories)-1))
	}
	return &RecordGenerator{
		rng:        rng,
		categories: categories,
		zipf:       zipf,
		users:      users,
		now:        time.Now,
	}, nil
}

// Next returns the next record.
func (g *RecordGenerator) Next() Record {
	idx := 0
	if g.zipf != nil {
		idx = int(g.zipf.Uint64())
	}
	return Record{
		Category: g.categories[idx],
		UserID:   g.rng.Intn(g.users),
		Value:    g.rng.Float64() * 100,
		At:       g.now(),
	}
}

// RateShape maps elapsed time to a target emission rate in tuples/second.
// Shapes modulate load so the runtime statistics form non-trivial time
// series for the predictors.
type RateShape interface {
	// Rate returns the target rate at the given elapsed time; always
	// non-negative.
	Rate(elapsed time.Duration) float64
	// Name identifies the shape.
	Name() string
}

// ConstantRate emits at a fixed rate.
type ConstantRate struct{ TPS float64 }

// Name implements RateShape.
func (c ConstantRate) Name() string { return "constant" }

// Rate implements RateShape.
func (c ConstantRate) Rate(time.Duration) float64 {
	if c.TPS < 0 {
		return 0
	}
	return c.TPS
}

// SinusoidRate oscillates around Base with the given Amplitude and Period,
// the diurnal-load stand-in.
type SinusoidRate struct {
	Base      float64
	Amplitude float64
	Period    time.Duration
}

// Name implements RateShape.
func (s SinusoidRate) Name() string { return "sinusoid" }

// Rate implements RateShape.
func (s SinusoidRate) Rate(elapsed time.Duration) float64 {
	if s.Period <= 0 {
		return math.Max(0, s.Base)
	}
	phase := 2 * math.Pi * elapsed.Seconds() / s.Period.Seconds()
	return math.Max(0, s.Base+s.Amplitude*math.Sin(phase))
}

// BurstRate is a base rate with periodic multiplicative bursts.
type BurstRate struct {
	Base     float64
	BurstX   float64       // rate multiplier during a burst
	Period   time.Duration // burst spacing
	Duration time.Duration // burst length
}

// Name implements RateShape.
func (b BurstRate) Name() string { return "burst" }

// Rate implements RateShape.
func (b BurstRate) Rate(elapsed time.Duration) float64 {
	base := math.Max(0, b.Base)
	if b.Period <= 0 || b.Duration <= 0 {
		return base
	}
	into := elapsed % b.Period
	if into < b.Duration {
		return base * math.Max(1, b.BurstX)
	}
	return base
}

// RampRate grows linearly from Start to End over Duration, then holds.
type RampRate struct {
	Start, End float64
	Duration   time.Duration
}

// Name implements RateShape.
func (r RampRate) Name() string { return "ramp" }

// Rate implements RateShape.
func (r RampRate) Rate(elapsed time.Duration) float64 {
	if r.Duration <= 0 || elapsed >= r.Duration {
		return math.Max(0, r.End)
	}
	frac := elapsed.Seconds() / r.Duration.Seconds()
	return math.Max(0, r.Start+(r.End-r.Start)*frac)
}

// ReplayRate replays a recorded rate series: Series[i] is the target rate
// during [i·Step, (i+1)·Step). Past the end it holds the last value (or 0
// for an empty series). Use it to drive spouts with rates captured from a
// production trace or generated offline.
type ReplayRate struct {
	Series []float64
	Step   time.Duration
}

// Name implements RateShape.
func (r ReplayRate) Name() string { return "replay" }

// Rate implements RateShape.
func (r ReplayRate) Rate(elapsed time.Duration) float64 {
	if len(r.Series) == 0 {
		return 0
	}
	step := r.Step
	if step <= 0 {
		step = time.Second
	}
	idx := int(elapsed / step)
	if idx < 0 {
		idx = 0
	}
	if idx >= len(r.Series) {
		idx = len(r.Series) - 1
	}
	return math.Max(0, r.Series[idx])
}

// Pacer converts a RateShape into a token bucket: the spout asks Allow()
// before each emission and skips the call when the budget for the elapsed
// time is spent. The rate integral accumulates incrementally (midpoint
// rule between successive calls), so each Allow is O(1) and accurate as
// long as the spout polls more often than the shape changes.
type Pacer struct {
	shape   RateShape
	start   time.Time
	now     func() time.Time
	last    time.Duration
	budget  float64
	emitted float64
}

// NewPacer starts a pacer at the current time.
func NewPacer(shape RateShape) *Pacer {
	p := &Pacer{shape: shape, now: time.Now}
	p.start = p.now()
	return p
}

// Allow reports whether one more emission fits the cumulative rate budget.
func (p *Pacer) Allow() bool {
	elapsed := p.now().Sub(p.start)
	if elapsed > p.last {
		mid := p.last + (elapsed-p.last)/2
		p.budget += p.shape.Rate(mid) * (elapsed - p.last).Seconds()
		p.last = elapsed
	}
	if p.emitted < p.budget {
		p.emitted++
		return true
	}
	return false
}
