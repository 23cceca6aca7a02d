package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"predstream/internal/workload"
)

// arrivalSchedule derives a deterministic open-loop arrival schedule from
// a workload.RateShape by thinning a seeded Poisson process: candidate
// events are drawn at rate lambdaMax and kept with probability
// shape.Rate(t)/lambdaMax. Same seed, same schedule.
func arrivalSchedule(shape workload.RateShape, lambdaMax float64, duration time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	t := 0.0
	limit := duration.Seconds()
	for {
		t += rng.ExpFloat64() / lambdaMax
		if t >= limit {
			return out
		}
		at := time.Duration(t * float64(time.Second))
		if rng.Float64()*lambdaMax <= shape.Rate(at) {
			out = append(out, at)
		}
	}
}

func TestArrivalScheduleDeterministic(t *testing.T) {
	shape := workload.BurstRate{Base: 500, BurstX: 3, Period: 100 * time.Millisecond, Duration: 30 * time.Millisecond}
	a := arrivalSchedule(shape, 1500, 300*time.Millisecond, 7)
	b := arrivalSchedule(shape, 1500, 300*time.Millisecond, 7)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	if c := arrivalSchedule(shape, 1500, 300*time.Millisecond, 8); len(c) == len(a) && c[0] == a[0] {
		t.Fatal("different seed produced the same schedule start")
	}
}

// slowBackend echoes ids like stubBackend but burns a fixed compute delay
// per batch, so an open-loop overload actually builds queue pressure and
// sheds — without it the stub drains any offered rate instantly.
type slowBackend struct {
	*stubBackend
	delay time.Duration
}

func (s *slowBackend) PredictBatch(windows [][][]float64, out []float64) error {
	time.Sleep(s.delay)
	return s.stubBackend.PredictBatch(windows, out)
}

// runLoad offers the schedule open-loop (no waiting for replies) and
// returns per-request outcomes. Request i carries id float64(i).
func runLoad(t *testing.T, c *Coalescer, window, features int, schedule []time.Duration) (ok, shed []bool, got []float64) {
	t.Helper()
	n := len(schedule)
	ok = make([]bool, n)
	shed = make([]bool, n)
	got = make([]float64, n)
	var wg sync.WaitGroup
	errs := make(chan error, n)
	start := time.Now()
	for i, at := range schedule {
		wg.Add(1)
		go func(i int, at time.Duration) {
			defer wg.Done()
			if d := at - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			v, err := c.Predict(context.Background(), testWindow(window, features, float64(i)))
			switch {
			case err == nil:
				ok[i] = true
				got[i] = v
			case errors.Is(err, ErrOverloaded):
				shed[i] = true
			default:
				errs <- fmt.Errorf("request %d: unexpected error %v", i, err)
			}
		}(i, at)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	return ok, shed, got
}

// TestLoadOpenLoopAccounting is the load-test harness of the issue: a
// seeded open-loop arrival process (Poisson-thinned constant and burst
// shapes from internal/workload) against a slow backend with a small
// queue. It asserts exact conservation — admitted + shed == offered, no
// lost or duplicated response, every response carrying its caller's own
// id — and batch-size histogram sanity.
func TestLoadOpenLoopAccounting(t *testing.T) {
	shapes := []struct {
		name      string
		shape     workload.RateShape
		lambdaMax float64
	}{
		{"poisson", workload.ConstantRate{TPS: 1200}, 1200},
		{"burst", workload.BurstRate{Base: 600, BurstX: 4,
			Period: 80 * time.Millisecond, Duration: 25 * time.Millisecond}, 2400},
	}
	for _, sc := range shapes {
		t.Run(sc.name, func(t *testing.T) {
			schedule := arrivalSchedule(sc.shape, sc.lambdaMax, 250*time.Millisecond, 42)
			offered := len(schedule)
			if offered < 50 {
				t.Fatalf("schedule too thin: %d arrivals", offered)
			}
			// Service capacity ~MaxBatch/delay = 800/s sits below the
			// offered ~1200/s average, so the queue genuinely saturates
			// and the shed path is exercised, not just declared.
			base := newStubBackend(4, 3)
			b := &slowBackend{stubBackend: base, delay: 5 * time.Millisecond}
			m := NewMetrics(nil)
			c := NewCoalescer(b, Options{MaxBatch: 4, QueueDepth: 8}, m)
			ok, shed, got := runLoad(t, c, 4, 3, schedule)
			c.Close()

			okCount, shedCount := 0, 0
			for i := range ok {
				switch {
				case ok[i] && shed[i]:
					t.Fatalf("request %d counted both ok and shed", i)
				case ok[i]:
					okCount++
					if got[i] != float64(i) {
						t.Fatalf("request %d received %v — lost or duplicated response", i, got[i])
					}
				case shed[i]:
					shedCount++
				default:
					t.Fatalf("request %d lost: neither response nor shed", i)
				}
			}
			if okCount+shedCount != offered {
				t.Fatalf("admitted %d + shed %d != offered %d", okCount, shedCount, offered)
			}
			if int(m.Admitted.Value()) != okCount {
				t.Fatalf("admitted counter %d, want %d", m.Admitted.Value(), okCount)
			}
			if int(m.Shed.Value()) != shedCount {
				t.Fatalf("shed counter %d, want %d", m.Shed.Value(), shedCount)
			}

			// Batch-size histogram sanity: every admitted request appears in
			// exactly one flushed batch, sizes within [1, MaxBatch], and the
			// flush count matches the batches counter.
			snap := m.BatchSize.Snapshot()
			if snap.Total() != m.Batches.Value() {
				t.Fatalf("batch size observations %d != batches %d", snap.Total(), m.Batches.Value())
			}
			rows := 0
			for _, s := range b.batchSizes() {
				if s < 1 || s > 4 {
					t.Fatalf("batch size %d outside [1, MaxBatch]", s)
				}
				rows += s
			}
			if rows != okCount {
				t.Fatalf("backend served %d rows, want %d admitted", rows, okCount)
			}
			if math.Abs(snap.Sum-float64(okCount)) > 1e-9 {
				t.Fatalf("batch size histogram sum %v, want %d", snap.Sum, okCount)
			}
			// Latency histogram saw every successful request.
			if lat := m.Latency.Snapshot(); lat.Total() != uint64(okCount) {
				t.Fatalf("latency observations %d, want %d", lat.Total(), okCount)
			}
			t.Logf("%s: offered %d admitted %d shed %d batches %d",
				sc.name, offered, okCount, shedCount, m.Batches.Value())
		})
	}
}

// TestLoadBatchedForwardBound is the batching bound: N requests coalesced
// while every dispatcher is busy must be served in at most ceil(N/MaxBatch)
// forward passes when the dispatchers drain them one at a time.
func TestLoadBatchedForwardBound(t *testing.T) {
	const (
		B = 8
		N = 40
	)
	b := newStubBackend(2, 1)
	b.gate = make(chan struct{})
	m := NewMetrics(nil)
	c := NewCoalescer(b, Options{MaxBatch: B, QueueDepth: N}, m)
	defer c.Close()

	// Plug: one request per dispatcher waits inside the gated backend.
	P := runtime.GOMAXPROCS(0)
	plugs := plugDispatchers(t, c, b, -float64(P))

	// Coalesce N requests behind it.
	var wg sync.WaitGroup
	errs := make(chan error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := c.Predict(context.Background(), testWindow(2, 1, float64(i)))
			if err == nil && got != float64(i) {
				err = fmt.Errorf("request %d got %v", i, got)
			}
			errs <- err
		}(i)
	}
	waitFor(t, func() bool { return m.Admitted.Value() == uint64(N+P) })
	releaseOneAtATime(t, c, b)
	for k := 0; k < P; k++ {
		if err := <-plugs; err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	forwardPasses := int(b.calls.Load()) - P // minus the plugs' own passes
	bound := (N + B - 1) / B
	if forwardPasses > bound {
		t.Fatalf("%d coalesced requests took %d forward passes, bound ceil(N/B) = %d",
			N, forwardPasses, bound)
	}
	t.Logf("N=%d B=%d: %d forward passes (bound %d)", N, B, forwardPasses, bound)
}
