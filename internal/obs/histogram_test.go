package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram("t_hist", "help", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 3, 4, 5, 100} {
		h.Observe(v)
	}
	d := h.Snapshot()
	// le semantics: 0.5,1 -> bucket 0; 1.5,2 -> bucket 1; 3,4 -> bucket 2;
	// 5,100 -> overflow.
	want := []uint64{2, 2, 2, 2}
	for i, w := range want {
		if d.Counts[i] != w {
			t.Fatalf("bucket %d: count %d, want %d (all: %v)", i, d.Counts[i], w, d.Counts)
		}
	}
	if d.Total() != 8 {
		t.Fatalf("total %d, want 8", d.Total())
	}
	if math.Abs(d.Sum-117) > 1e-9 {
		t.Fatalf("sum %v, want 117", d.Sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram("t_hist", "help", []float64{1, 2, 4, 8})
	if !math.IsNaN(h.Quantile(0.5)) {
		t.Fatal("empty histogram quantile should be NaN")
	}
	// 100 observations uniform in (0, 4]: 25 per bucket of the first 3.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) * 0.04)
	}
	if q := h.Quantile(0.5); math.Abs(q-2) > 0.1 {
		t.Fatalf("p50 = %v, want ~2", q)
	}
	if q := h.Quantile(0.99); math.Abs(q-3.96) > 0.2 {
		t.Fatalf("p99 = %v, want ~3.96", q)
	}
	// Overflow values are reported as the last finite bound.
	h2 := NewHistogram("t2", "help", []float64{1})
	h2.Observe(50)
	if q := h2.Quantile(0.9); q != 1 {
		t.Fatalf("overflow quantile = %v, want last bound 1", q)
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram("t_hist", "help", ExponentialBounds(1, 2, 8))
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(w + 1))
			}
		}(w)
	}
	wg.Wait()
	d := h.Snapshot()
	if d.Total() != workers*per {
		t.Fatalf("total %d, want %d", d.Total(), workers*per)
	}
	wantSum := float64(per) * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8)
	if math.Abs(d.Sum-wantSum) > 1e-6 {
		t.Fatalf("sum %v, want %v", d.Sum, wantSum)
	}
}

func TestHistogramExposition(t *testing.T) {
	reg := NewRegistry()
	h := NewHistogram("t_latency_seconds", "request latency", []float64{0.1, 1})
	reg.Register(h)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`# TYPE t_latency_seconds histogram`,
		`t_latency_seconds_bucket{le="0.1"} 1`,
		`t_latency_seconds_bucket{le="1"} 2`,
		`t_latency_seconds_bucket{le="+Inf"} 3`,
		`t_latency_seconds_count 3`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestBoundsHelpers(t *testing.T) {
	if got := ExponentialBounds(1, 2, 4); got[0] != 1 || got[3] != 8 {
		t.Fatalf("ExponentialBounds = %v", got)
	}
	for _, f := range []func(){
		func() { NewHistogram("x", "", nil) },
		func() { NewHistogram("x", "", []float64{2, 1}) },
		func() { NewHistogram("x", "", []float64{math.NaN()}) },
		func() { ExponentialBounds(0, 2, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

// BenchmarkHistogramObservePerRoot prices Histogram.Observe at one sample
// per acked root, over the engine's latency buckets in seconds and the
// same latencies as BenchmarkCompleteHistPerRoot in internal/dsps, its
// pair: a binary search, an atomic add and a CAS loop per sample.
func BenchmarkHistogramObservePerRoot(b *testing.B) {
	h := NewHistogram("complete_latency_seconds", "", histBoundsSeconds)
	lat := make([]float64, 1024)
	for i := range lat {
		lat[i] = (time.Microsecond<<(i%14) + time.Duration(i*7919%1000)).Seconds()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(lat[i&1023])
	}
}
