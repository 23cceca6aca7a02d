package workload

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestURLGeneratorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := NewURLGenerator(rng, 0, 1.1); err == nil {
		t.Fatal("n=0 should error")
	}
	if _, err := NewURLGenerator(rng, 10, 1.0); err == nil {
		t.Fatal("s=1 should error")
	}
}

func TestURLGeneratorZipfSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g, err := NewURLGenerator(rng, 100, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if g.n != 100 {
		t.Fatalf("URL universe = %d", g.n)
	}
	counts := map[string]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		counts[g.Next()]++
	}
	// Zipf means the top URL dominates: its share must far exceed
	// uniform (1%).
	var freqs []int
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freqs)))
	if top := float64(freqs[0]) / n; top < 0.05 {
		t.Fatalf("top URL share %v too uniform for zipf", top)
	}
	if len(counts) < 10 {
		t.Fatalf("only %d distinct URLs drawn", len(counts))
	}
}

func TestRecordGeneratorValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := NewRecordGenerator(rng, nil, 10); err == nil {
		t.Fatal("no categories should error")
	}
	if _, err := NewRecordGenerator(rng, []string{"a"}, 0); err == nil {
		t.Fatal("zero users should error")
	}
}

func TestRecordGeneratorFields(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g, err := NewRecordGenerator(rng, []string{"sports", "news", "tech"}, 50)
	if err != nil {
		t.Fatal(err)
	}
	cats := map[string]bool{}
	for i := 0; i < 1000; i++ {
		r := g.Next()
		if r.UserID < 0 || r.UserID >= 50 {
			t.Fatalf("UserID %d out of range", r.UserID)
		}
		if r.Value < 0 || r.Value >= 100 {
			t.Fatalf("Value %v out of range", r.Value)
		}
		cats[r.Category] = true
	}
	if !cats["sports"] {
		t.Fatal("most popular category never drawn")
	}
}

func TestRecordGeneratorSingleCategory(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := NewRecordGenerator(rng, []string{"only"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.Next().Category != "only" {
		t.Fatal("single category wrong")
	}
}

func TestConstantRate(t *testing.T) {
	c := ConstantRate{TPS: 50}
	if c.Rate(0) != 50 || c.Rate(time.Hour) != 50 {
		t.Fatal("constant rate varies")
	}
	if (ConstantRate{TPS: -1}).Rate(0) != 0 {
		t.Fatal("negative rate not clamped")
	}
	if c.Name() != "constant" {
		t.Fatal("name wrong")
	}
}

func TestSinusoidRate(t *testing.T) {
	s := SinusoidRate{Base: 100, Amplitude: 50, Period: 4 * time.Second}
	if got := s.Rate(0); math.Abs(got-100) > 1e-9 {
		t.Fatalf("rate(0) = %v", got)
	}
	if got := s.Rate(time.Second); math.Abs(got-150) > 1e-9 {
		t.Fatalf("rate(quarter period) = %v", got)
	}
	if got := s.Rate(3 * time.Second); math.Abs(got-50) > 1e-9 {
		t.Fatalf("rate(3/4 period) = %v", got)
	}
	// Amplitude larger than base clamps at zero.
	deep := SinusoidRate{Base: 10, Amplitude: 100, Period: 4 * time.Second}
	if got := deep.Rate(3 * time.Second); got != 0 {
		t.Fatalf("clamped rate = %v", got)
	}
	if got := (SinusoidRate{Base: 7}).Rate(time.Second); got != 7 {
		t.Fatalf("zero-period sinusoid = %v", got)
	}
}

func TestBurstRate(t *testing.T) {
	b := BurstRate{Base: 10, BurstX: 5, Period: time.Second, Duration: 200 * time.Millisecond}
	if got := b.Rate(100 * time.Millisecond); got != 50 {
		t.Fatalf("in-burst rate = %v", got)
	}
	if got := b.Rate(500 * time.Millisecond); got != 10 {
		t.Fatalf("off-burst rate = %v", got)
	}
	if got := b.Rate(1100 * time.Millisecond); got != 50 {
		t.Fatalf("second burst rate = %v", got)
	}
	if got := (BurstRate{Base: 10}).Rate(0); got != 10 {
		t.Fatalf("degenerate burst = %v", got)
	}
}

func TestRampRate(t *testing.T) {
	r := RampRate{Start: 0, End: 100, Duration: 10 * time.Second}
	if got := r.Rate(0); got != 0 {
		t.Fatalf("ramp(0) = %v", got)
	}
	if got := r.Rate(5 * time.Second); math.Abs(got-50) > 1e-9 {
		t.Fatalf("ramp(mid) = %v", got)
	}
	if got := r.Rate(20 * time.Second); got != 100 {
		t.Fatalf("ramp(after) = %v", got)
	}
	if got := (RampRate{End: 5}).Rate(0); got != 5 {
		t.Fatalf("zero-duration ramp = %v", got)
	}
}

func TestReplayRate(t *testing.T) {
	r := ReplayRate{Series: []float64{100, 200, -5}, Step: time.Second}
	if got := r.Rate(0); got != 100 {
		t.Fatalf("rate(0) = %v", got)
	}
	if got := r.Rate(1500 * time.Millisecond); got != 200 {
		t.Fatalf("rate(1.5s) = %v", got)
	}
	if got := r.Rate(2500 * time.Millisecond); got != 0 {
		t.Fatalf("negative sample not clamped: %v", got)
	}
	// Past the end holds the last (clamped) value.
	if got := r.Rate(time.Hour); got != 0 {
		t.Fatalf("rate(past end) = %v", got)
	}
	hold := ReplayRate{Series: []float64{10, 50}, Step: time.Second}
	if got := hold.Rate(time.Hour); got != 50 {
		t.Fatalf("hold = %v", got)
	}
	if got := (ReplayRate{}).Rate(0); got != 0 {
		t.Fatalf("empty replay = %v", got)
	}
	// Zero step defaults to 1s.
	d := ReplayRate{Series: []float64{1, 2}}
	if got := d.Rate(1500 * time.Millisecond); got != 2 {
		t.Fatalf("default step = %v", got)
	}
	if r.Name() != "replay" {
		t.Fatal("name wrong")
	}
}

func TestPacerTracksConstantRate(t *testing.T) {
	p := NewPacer(ConstantRate{TPS: 100})
	// Drive virtual time: 1s in 1ms steps, polling aggressively.
	base := p.start
	var fake time.Duration
	p.now = func() time.Time { return base.Add(fake) }
	allowed := 0
	for fake = 0; fake <= time.Second; fake += time.Millisecond {
		for p.Allow() {
			allowed++
		}
	}
	if allowed < 95 || allowed > 105 {
		t.Fatalf("pacer allowed %d emissions in 1s at 100 TPS", allowed)
	}
}

func TestPacerFollowsRamp(t *testing.T) {
	p := NewPacer(RampRate{Start: 0, End: 100, Duration: 2 * time.Second})
	base := p.start
	var fake time.Duration
	p.now = func() time.Time { return base.Add(fake) }
	firstHalf, secondHalf := 0, 0
	for fake = 0; fake <= 2*time.Second; fake += time.Millisecond {
		for p.Allow() {
			if fake <= time.Second {
				firstHalf++
			} else {
				secondHalf++
			}
		}
	}
	// Ramp 0→100 over 2s: first second integrates to 25, second to 75.
	if firstHalf < 20 || firstHalf > 30 {
		t.Fatalf("first half emitted %d, want ≈25", firstHalf)
	}
	if secondHalf < 68 || secondHalf > 82 {
		t.Fatalf("second half emitted %d, want ≈75", secondHalf)
	}
}
