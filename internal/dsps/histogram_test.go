package dsps

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

// observe records one sample straight into the shared histogram, the way
// an executor's staged sample lands there once published.
func (h *latencyHist) observe(d time.Duration) {
	var s histStage
	s.observe(d)
	s.publish(h)
}

// shiftLoopBucket is the bucket rule observe used to spell out as a shift
// loop, kept as the reference the bit-length form must match.
func shiftLoopBucket(d time.Duration) int {
	if d < 0 {
		d = 0
	}
	idx := 0
	for v := d / histBase; v > 0 && idx < histBuckets-1; v >>= 1 {
		idx++
	}
	return idx
}

// TestObserveBucketMatchesShiftLoop checks observe against the shift loop
// at every power-of-two bucket boundary ±1ns up to the largest Duration,
// and at zero, negative and huge durations.
func TestObserveBucketMatchesShiftLoop(t *testing.T) {
	ds := []time.Duration{0, -1, -time.Second, math.MinInt64, math.MaxInt64, math.MaxInt64 - 1, 1000 * time.Hour}
	for k := 0; histBase<<k > 0; k++ {
		b := histBase << k
		ds = append(ds, b-1, b, b+1)
	}
	for _, d := range ds {
		var s histStage
		s.observe(d)
		want := shiftLoopBucket(d)
		if s[want] != 1 {
			t.Fatalf("observe(%d) filled %v, want bucket %d", int64(d), s, want)
		}
	}
}

func TestHistObserveBuckets(t *testing.T) {
	var h latencyHist
	h.observe(0)                    // bucket 0
	h.observe(63 * time.Nanosecond) // bucket 0
	h.observe(64 * time.Nanosecond) // bucket 1
	h.observe(time.Millisecond)
	h.observe(time.Hour) // clamps to last bucket
	counts := h.snapshot()
	if counts[0] != 2 {
		t.Fatalf("bucket 0 = %d", counts[0])
	}
	if counts[1] != 1 {
		t.Fatalf("bucket 1 = %d", counts[1])
	}
	if counts[histBuckets-1] != 1 {
		t.Fatalf("overflow bucket = %d", counts[histBuckets-1])
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 5 {
		t.Fatalf("total = %d", total)
	}
	h.observe(-time.Second) // negative clamps to 0
	if h.snapshot()[0] != 3 {
		t.Fatal("negative sample not clamped into bucket 0")
	}
}

func TestHistogramQuantileBasics(t *testing.T) {
	if got := HistogramQuantile(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
	if got := HistogramQuantile([]int64{1}, 0); got != 0 {
		t.Fatalf("q=0 = %v", got)
	}
	if got := HistogramQuantile([]int64{1}, 1.5); got != 0 {
		t.Fatalf("q>1 = %v", got)
	}
	var h latencyHist
	for i := 0; i < 1000; i++ {
		h.observe(time.Millisecond)
	}
	p50 := HistogramQuantile(h.snapshot(), 0.5)
	// 1ms falls in a bucket spanning [~0.52ms, ~1.05ms); the estimate must
	// land within that factor-of-2 band.
	if p50 < 500*time.Microsecond || p50 > 1100*time.Microsecond {
		t.Fatalf("p50 of 1ms point mass = %v", p50)
	}
}

func TestHistogramQuantileOrdering(t *testing.T) {
	var h latencyHist
	for i := 0; i < 900; i++ {
		h.observe(time.Millisecond)
	}
	for i := 0; i < 100; i++ {
		h.observe(100 * time.Millisecond)
	}
	counts := h.snapshot()
	p50 := HistogramQuantile(counts, 0.5)
	p95 := HistogramQuantile(counts, 0.95)
	p999 := HistogramQuantile(counts, 0.999)
	if !(p50 < p95 && p95 <= p999) {
		t.Fatalf("quantiles not monotone: %v %v %v", p50, p95, p999)
	}
	// The tail must reflect the slow mode.
	if p999 < 50*time.Millisecond {
		t.Fatalf("p99.9 = %v, want the 100ms mode", p999)
	}
	if p50 > 2*time.Millisecond {
		t.Fatalf("p50 = %v, want the 1ms mode", p50)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	var single latencyHist
	single.observe(time.Millisecond)
	var multi latencyHist
	for i := 0; i < 10; i++ {
		multi.observe(time.Millisecond)
	}
	multi.observe(100 * time.Millisecond)
	// 1ms lands in [524288ns, 1048576ns); 100ms in [~67.1ms, ~134.2ms).
	cases := []struct {
		name   string
		counts []int64
		q      float64
		lo, hi time.Duration
	}{
		{"single sample q=1", single.snapshot(), 1, 500 * time.Microsecond, 1100 * time.Microsecond},
		{"single sample q near 0", single.snapshot(), 0.001, 500 * time.Microsecond, 1100 * time.Microsecond},
		{"single sample q=0.5", single.snapshot(), 0.5, 500 * time.Microsecond, 1100 * time.Microsecond},
		{"q=1 selects last occupied bucket", multi.snapshot(), 1, 50 * time.Millisecond, 200 * time.Millisecond},
		// rank(0.999 × 11) = 10: the last sample below the tail mode, so
		// only q = 1 exactly reaches the 100ms outlier.
		{"q just below 1 stays in dominant bucket", multi.snapshot(), 0.999, 500 * time.Microsecond, 1100 * time.Microsecond},
	}
	for _, tc := range cases {
		got := HistogramQuantile(tc.counts, tc.q)
		if got < tc.lo || got > tc.hi {
			t.Errorf("%s: quantile = %v, want in [%v, %v]", tc.name, got, tc.lo, tc.hi)
		}
	}
	// q=1 must never fall through to the overflow bucket's upper bound
	// when the population sits in lower buckets (rank clamp).
	_, overflowHi := bucketBounds(histBuckets - 1)
	if got := HistogramQuantile(single.snapshot(), 1); got >= overflowHi {
		t.Fatalf("q=1 of single sample hit overflow bound %v", got)
	}
}

func TestPropertyQuantileWithinBucketBounds(t *testing.T) {
	// For any single-value histogram, every quantile lands within a
	// factor of 2 of the observed value (bucket resolution).
	f := func(usRaw uint32, qRaw uint8) bool {
		us := int(usRaw%100000) + 1
		d := time.Duration(us) * time.Microsecond
		q := (float64(qRaw%100) + 1) / 100 // (0, 1] inclusive of q = 1
		var h latencyHist
		for i := 0; i < 10; i++ {
			h.observe(d)
		}
		got := HistogramQuantile(h.snapshot(), q)
		return got <= 2*d && got*2 >= d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMergeHistograms(t *testing.T) {
	var a, b latencyHist
	a.observe(time.Millisecond)
	b.observe(time.Millisecond)
	b.observe(time.Second)
	merged := MergeHistograms(a.snapshot(), b.snapshot())
	var total int64
	for _, c := range merged {
		total += c
	}
	if total != 3 {
		t.Fatalf("merged total = %d", total)
	}
	if len(MergeHistograms()) != histBuckets {
		t.Fatal("empty merge shape wrong")
	}
}

func TestSnapshotCarriesHistograms(t *testing.T) {
	spout := &countingSpout{limit: 100}
	b := NewTopologyBuilder("hist")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("src")
	topo, _ := b.Build()
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(5 * time.Second) {
		t.Fatal("did not drain")
	}
	snap := c.Snapshot()
	sink := snap.ComponentTasks("sink")[0]
	var execSamples int64
	for _, v := range sink.ExecHist {
		execSamples += v
	}
	if execSamples != 100 {
		t.Fatalf("exec histogram has %d samples, want 100", execSamples)
	}
	if HistogramQuantile(sink.ExecHist, 0.5) < 0 {
		t.Fatal("negative quantile")
	}
	src := snap.ComponentTasks("src")[0]
	var completeSamples int64
	for _, v := range src.CompleteHist {
		completeSamples += v
	}
	if completeSamples != 100 {
		t.Fatalf("complete histogram has %d samples, want 100", completeSamples)
	}
	if q := HistogramQuantile(src.CompleteHist, 0.99); q <= 0 {
		t.Fatalf("cluster complete p99 = %v", q)
	}
}

// benchLatencies is a fixed spread of complete latencies from 1 µs to
// ~8 ms, the range an acked root's latency falls in on the benchmark
// workloads. BenchmarkHistogramObservePerRoot in internal/obs observes the
// same values.
func benchLatencies() []time.Duration {
	out := make([]time.Duration, 1024)
	for i := range out {
		out[i] = time.Microsecond<<(i%14) + time.Duration(i*7919%1000)
	}
	return out
}

// BenchmarkCompleteHistPerRoot prices the engine's complete-latency
// histogram at one sample per acked root: a staged increment, published to
// the shared atomics every 32 roots. A spout publishes once per coarse
// tick and before each wait, ≈25 roots apart at 50k roots/s and further
// apart the faster it runs. Its pair is BenchmarkHistogramObservePerRoot
// in internal/obs, which cannot be imported from here.
func BenchmarkCompleteHistPerRoot(b *testing.B) {
	var h latencyHist
	var s histStage
	lat := benchLatencies()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.observe(lat[i&1023])
		if i&31 == 31 {
			s.publish(&h)
		}
	}
}
