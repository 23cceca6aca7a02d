package dsps

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// histBuckets is the bucket count of the latency histograms: bucket 0
// covers [0, 64ns) and bucket i ≥ 1 covers [64ns·2^(i−1), 64ns·2^i),
// spanning up to ~8.6 s with the last bucket absorbing overflow —
// log-spaced so percentile error is bounded at a factor of 2 across six
// decades with 28 counters per histogram.
const histBuckets = 28

// histBase is the lower bound of bucket 0.
const histBase = 64 * time.Nanosecond

// latencyHist is a lock-free fixed-bucket latency histogram.
type latencyHist struct {
	buckets [histBuckets]atomic.Int64
}

// histStage is the goroutine-local staging form of a latencyHist: plain
// bucket counts that publish adds to the shared histogram in bulk.
type histStage [histBuckets]int64

// observe records one latency sample.
//
//dsps:hotpath
func (s *histStage) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	// Bucket i ≥ 1 holds the d whose d/histBase has bit length i.
	s[min(bits.Len64(uint64(d/histBase)), histBuckets-1)]++
}

// publish adds the staged counts to h and zeroes them.
//
//dsps:hotpath
func (s *histStage) publish(h *latencyHist) {
	for i, n := range s {
		if n != 0 {
			h.buckets[i].Add(n)
			s[i] = 0
		}
	}
}

// snapshot copies the current counts.
func (h *latencyHist) snapshot() []int64 {
	out := make([]int64, histBuckets)
	for i := range out {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// HistogramQuantile estimates the q-quantile (0 < q ≤ 1) from histogram
// counts produced by the engine's latency histograms, interpolating
// linearly within the winning bucket. It returns 0 for empty histograms
// and is exported so callers can merge task histograms before computing
// cluster-level percentiles.
func HistogramQuantile(counts []int64, q float64) time.Duration {
	if q <= 0 || q > 1 {
		return 0
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	// Guard against float rounding pushing the rank past the population:
	// q = 1 must select the last occupied bucket, not the overflow bound.
	if rank > total {
		rank = total
	}
	var seen int64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		if seen+c >= rank {
			lo, hi := bucketBounds(i)
			frac := float64(rank-seen) / float64(c)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		seen += c
	}
	_, hi := bucketBounds(len(counts) - 1)
	return hi
}

// HistogramBucketBounds returns the finite upper bounds of the engine's
// latency-histogram buckets: entry i is the exclusive upper bound of
// bucket i for i in [0, histBuckets-2]. The final bucket absorbs overflow
// and has no finite bound (+Inf in Prometheus terms), so the returned
// slice has one fewer entry than the histograms have buckets.
func HistogramBucketBounds() []time.Duration {
	out := make([]time.Duration, histBuckets-1)
	for i := range out {
		_, hi := bucketBounds(i)
		out[i] = hi
	}
	return out
}

// bucketBounds returns the [lo, hi) range of bucket i, matching observe's
// indexing.
func bucketBounds(i int) (lo, hi time.Duration) {
	if i == 0 {
		return 0, histBase
	}
	lo = histBase << uint(i-1)
	return lo, lo * 2
}

// MergeHistograms sums histogram count slices element-wise; inputs must
// share the engine's bucket layout.
func MergeHistograms(hs ...[]int64) []int64 {
	out := make([]int64, histBuckets)
	for _, h := range hs {
		for i := 0; i < len(h) && i < histBuckets; i++ {
			out[i] += h[i]
		}
	}
	return out
}
