package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stubBackend echoes window[0][0] as the prediction, so tests can verify
// each caller gets its own answer back. It records every batch size and
// can be gated to hold dispatchers inside a forward pass.
type stubBackend struct {
	window   int
	features int

	mu      sync.Mutex
	batches []int

	calls atomic.Int64
	gate  chan struct{} // when non-nil, PredictBatch waits for one token per call
	fail  atomic.Bool
}

func newStubBackend(window, features int) *stubBackend {
	return &stubBackend{window: window, features: features}
}

func (s *stubBackend) Window() int   { return s.window }
func (s *stubBackend) Features() int { return s.features }

func (s *stubBackend) PredictBatch(windows [][][]float64, out []float64) error {
	s.calls.Add(1)
	if s.gate != nil {
		<-s.gate
	}
	if s.fail.Load() {
		return errors.New("stub backend failure")
	}
	s.mu.Lock()
	s.batches = append(s.batches, len(windows))
	s.mu.Unlock()
	for i, w := range windows {
		out[i] = w[0][0]
	}
	return nil
}

func (s *stubBackend) batchSizes() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, len(s.batches))
	copy(out, s.batches)
	return out
}

// testWindow builds a valid window carrying id in position [0][0].
func testWindow(window, features int, id float64) [][]float64 {
	w := make([][]float64, window)
	for t := range w {
		w[t] = make([]float64, features)
	}
	w[0][0] = id
	return w
}

// TestCoalescerLoneRequestNeverWaits pins the idle-backend rule: a request
// that finds a dispatcher idle is evaluated at once, alone, however far
// below MaxBatch it is. Any wait for company shows a hundredfold here: a
// 2 ms fill timer makes 100 sequential lone requests take 200 ms.
func TestCoalescerLoneRequestNeverWaits(t *testing.T) {
	const N = 100
	b := newStubBackend(3, 2)
	c := NewCoalescer(b, Options{MaxBatch: 64, QueueDepth: 8}, nil)
	defer c.Close()
	start := time.Now()
	for i := 0; i < N; i++ {
		got, err := c.Predict(context.Background(), testWindow(3, 2, float64(i)))
		if err != nil {
			t.Fatal(err)
		}
		if got != float64(i) {
			t.Fatalf("request %d got %v", i, got)
		}
	}
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Fatalf("%d sequential lone requests took %v, want < 100ms: something waits for company", N, elapsed)
	}
	sizes := b.batchSizes()
	if len(sizes) != N {
		t.Fatalf("%d batches for %d lone requests", len(sizes), N)
	}
	for _, s := range sizes {
		if s != 1 {
			t.Fatalf("batch sizes %v, want all 1", sizes)
		}
	}
}

// plugDispatchers occupies every dispatcher of c with a lone request held
// inside the gated backend b, one opener at a time so that each finds an
// idle dispatcher and none share a batch. The openers carry ids from
// firstID on and report their errors on the returned channel.
func plugDispatchers(t *testing.T, c *Coalescer, b *stubBackend, firstID float64) <-chan error {
	t.Helper()
	n := runtime.GOMAXPROCS(0)
	errs := make(chan error, n)
	for k := 0; k < n; k++ {
		id := firstID + float64(k)
		go func() {
			got, err := c.Predict(context.Background(), testWindow(b.window, b.features, id))
			if err == nil && got != id {
				err = fmt.Errorf("opener %v got %v", id, got)
			}
			errs <- err
		}()
		waitFor(t, func() bool { return b.calls.Load() == int64(k+1) })
	}
	return errs
}

// releaseOneAtATime lets the plugged dispatchers drain c's queue with only
// one of them outside the gated backend at any moment: each token frees one
// backend call, and the next goes out only once the freed dispatcher has
// taken its next batch into the backend or found the queue empty. Then it
// opens the gate for good.
func releaseOneAtATime(t *testing.T, c *Coalescer, b *stubBackend) {
	t.Helper()
	for len(c.queue) > 0 {
		prev := b.calls.Load()
		b.gate <- struct{}{}
		waitFor(t, func() bool { return b.calls.Load() > prev || len(c.queue) == 0 })
	}
	close(b.gate)
}

// TestCoalescerFullBatchFlushesImmediately pins where batches come from:
// what queues up behind busy dispatchers goes out together as soon as one
// is free. Gated openers hold every dispatcher in its own batch of 1; the
// B requests enqueued meanwhile leave as one batch of B.
func TestCoalescerFullBatchFlushesImmediately(t *testing.T) {
	const B = 8
	b := newStubBackend(2, 1)
	b.gate = make(chan struct{})
	m := NewMetrics(nil)
	c := NewCoalescer(b, Options{MaxBatch: B, QueueDepth: 2 * B}, m)
	defer c.Close()

	openers := plugDispatchers(t, c, b, B)
	var wg sync.WaitGroup
	errs := make(chan error, B)
	for i := 0; i < B; i++ {
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
	n := runtime.GOMAXPROCS(0)
	waitFor(t, func() bool { return m.Admitted.Value() == uint64(B+n) })
	releaseOneAtATime(t, c, b)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < n; k++ {
		if err := <-openers; err != nil {
			t.Fatal(err)
		}
	}
	sizes := b.batchSizes()
	sort.Ints(sizes)
	if len(sizes) != n+1 || sizes[n-1] != 1 || sizes[n] != B {
		t.Fatalf("batch sizes %v, want %d batches of 1 and one of %d", sizes, n, B)
	}
}

// TestCoalescerClosedLoopKeepsBatchesFull pins that batching needs no
// timer under load: with 2×MaxBatch closed-loop clients per dispatcher and
// a backend that takes 1 ms per call, a full batch is always waiting when a
// flush returns.
func TestCoalescerClosedLoopKeepsBatchesFull(t *testing.T) {
	const (
		B    = 8
		perC = 50
	)
	clients := 2 * B * runtime.GOMAXPROCS(0)
	b := &slowBackend{stubBackend: newStubBackend(2, 1), delay: time.Millisecond}
	c := NewCoalescer(b, Options{MaxBatch: B, QueueDepth: clients}, nil)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; i < perC; i++ {
				id := float64(cl*perC + i)
				got, err := c.Predict(context.Background(), testWindow(2, 1, id))
				if err == nil && got != id {
					err = fmt.Errorf("request %v got %v", id, got)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	c.Close()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	sizes := b.batchSizes()
	rows := 0
	for _, s := range sizes {
		if s < 1 || s > B {
			t.Fatalf("batch size %d outside [1, MaxBatch]", s)
		}
		rows += s
	}
	if rows != clients*perC {
		t.Fatalf("backend saw %d rows, want %d", rows, clients*perC)
	}
	if mean := float64(rows) / float64(len(sizes)); mean < B/2 {
		t.Fatalf("mean batch %.1f over %d batches, want >= %d", mean, len(sizes), B/2)
	}
}

// TestCoalescerConcurrentCallersGetOwnRows pins result wiring under -race:
// many goroutines submit distinct ids and every reply must carry the
// caller's own id.
func TestCoalescerConcurrentCallersGetOwnRows(t *testing.T) {
	b := newStubBackend(4, 3)
	c := NewCoalescer(b, Options{MaxBatch: 7, QueueDepth: 1024}, nil)
	defer c.Close()
	const N = 300
	var wg sync.WaitGroup
	errs := make(chan error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, err := c.Predict(context.Background(), testWindow(4, 3, float64(i)))
			if err != nil {
				errs <- err
				return
			}
			if got != float64(i) {
				errs <- fmt.Errorf("request %d got %v — cross-wired reply", i, got)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	total := 0
	for _, s := range b.batchSizes() {
		if s < 1 || s > 7 {
			t.Fatalf("batch size %d outside [1, MaxBatch]", s)
		}
		total += s
	}
	if total != N {
		t.Fatalf("backend saw %d rows, want %d", total, N)
	}
}

// TestCoalescerShedsWhenQueueFull pins admission control: with the
// backend gated shut and the queue sized Q, at most Q+P requests are in
// flight (Q queued + one batch opener per dispatcher) and the rest shed
// immediately.
func TestCoalescerShedsWhenQueueFull(t *testing.T) {
	b := newStubBackend(2, 1)
	b.gate = make(chan struct{})
	const Q = 4
	P := uint64(runtime.GOMAXPROCS(0))
	m := NewMetrics(nil)
	c := NewCoalescer(b, Options{MaxBatch: 1, QueueDepth: Q}, m)
	defer c.Close()

	// Occupy every dispatcher: each opener takes a batch of 1 (MaxBatch=1)
	// and blocks inside the gated backend.
	openers := plugDispatchers(t, c, b, 0)

	// Fill the queue exactly.
	var wg sync.WaitGroup
	results := make(chan error, Q)
	for i := 0; i < Q; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := c.Predict(context.Background(), testWindow(2, 1, float64(i+1)))
			results <- err
		}(i)
	}
	waitFor(t, func() bool { return m.Admitted.Value() == Q+P })

	// Every further request must shed synchronously.
	for i := 0; i < 3; i++ {
		if _, err := c.Predict(context.Background(), testWindow(2, 1, 99)); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("expected ErrOverloaded, got %v", err)
		}
	}
	if m.Shed.Value() != 3 {
		t.Fatalf("shed counter %d, want 3", m.Shed.Value())
	}

	close(b.gate)
	for k := uint64(0); k < P; k++ {
		if err := <-openers; err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Fatal(err)
		}
	}
	if m.Admitted.Value() != Q+P {
		t.Fatalf("admitted %d, want %d", m.Admitted.Value(), Q+P)
	}
}

// rendezvousBackend completes a call only once two calls are inside it at
// the same time, and fails a call that waits longer than a few seconds for
// its partner.
type rendezvousBackend struct {
	*stubBackend
	inside atomic.Int32
	both   chan struct{}
}

func (r *rendezvousBackend) PredictBatch(windows [][][]float64, out []float64) error {
	if r.inside.Add(1) == 2 {
		close(r.both)
	}
	select {
	case <-r.both:
	case <-time.After(5 * time.Second):
		return errors.New("no second batch joined within 5s")
	}
	return r.stubBackend.PredictBatch(windows, out)
}

// TestCoalescerBatchesRunConcurrently pins one dispatcher per core: a
// second request, sent while the first one's batch is inside the backend,
// must be evaluated alongside it rather than wait for it.
func TestCoalescerBatchesRunConcurrently(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("needs GOMAXPROCS >= 2")
	}
	b := &rendezvousBackend{stubBackend: newStubBackend(2, 1), both: make(chan struct{})}
	c := NewCoalescer(b, Options{MaxBatch: 8, QueueDepth: 8}, nil)
	defer c.Close()
	first := make(chan error, 1)
	go func() {
		_, err := c.Predict(context.Background(), testWindow(2, 1, 1))
		first <- err
	}()
	waitFor(t, func() bool { return b.inside.Load() == 1 })
	if got, err := c.Predict(context.Background(), testWindow(2, 1, 2)); err != nil || got != 2 {
		t.Fatalf("second request = %v, %v; want 2, nil", got, err)
	}
	if err := <-first; err != nil {
		t.Fatal(err)
	}
}

// TestCoalescerContextCancel pins that an abandoned caller neither blocks
// nor corrupts later requests (the buffered reply goes unread).
func TestCoalescerContextCancel(t *testing.T) {
	b := newStubBackend(2, 1)
	b.gate = make(chan struct{})
	c := NewCoalescer(b, Options{MaxBatch: 1, QueueDepth: 4}, nil)
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for b.calls.Load() == 0 {
			time.Sleep(100 * time.Microsecond)
		}
		cancel()
	}()
	if _, err := c.Predict(ctx, testWindow(2, 1, 1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	close(b.gate)
	// A fresh request must still work.
	got, err := c.Predict(context.Background(), testWindow(2, 1, 7))
	if err != nil || got != 7 {
		t.Fatalf("post-cancel predict = %v, %v; want 7, nil", got, err)
	}
}

// TestCoalescerBackendErrorPropagates pins that a failing forward pass
// reaches every caller in the batch and bumps the error counter.
func TestCoalescerBackendErrorPropagates(t *testing.T) {
	b := newStubBackend(2, 1)
	b.fail.Store(true)
	m := NewMetrics(nil)
	c := NewCoalescer(b, Options{MaxBatch: 4, QueueDepth: 8}, m)
	defer c.Close()
	if _, err := c.Predict(context.Background(), testWindow(2, 1, 1)); err == nil {
		t.Fatal("expected backend error")
	}
	if m.Errors.Value() == 0 {
		t.Fatal("error counter not bumped")
	}
}

// TestCoalescerShapeValidation pins synchronous rejection of wrong-shape
// windows without touching the queue.
func TestCoalescerShapeValidation(t *testing.T) {
	b := newStubBackend(3, 2)
	m := NewMetrics(nil)
	c := NewCoalescer(b, Options{}, m)
	defer c.Close()
	if _, err := c.Predict(context.Background(), testWindow(2, 2, 1)); err == nil {
		t.Fatal("expected step-count error")
	}
	if _, err := c.Predict(context.Background(), testWindow(3, 1, 1)); err == nil {
		t.Fatal("expected feature-count error")
	}
	if m.Admitted.Value() != 0 || m.Shed.Value() != 0 {
		t.Fatal("invalid requests must not count as admitted or shed")
	}
}

// TestCoalescerCloseFlushesQueued pins graceful shutdown: requests queued
// behind a gated backend still get answers when Close drains.
func TestCoalescerCloseFlushesQueued(t *testing.T) {
	b := newStubBackend(2, 1)
	b.gate = make(chan struct{})
	m := NewMetrics(nil)
	c := NewCoalescer(b, Options{MaxBatch: 2, QueueDepth: 16}, m)

	const N = 5
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
	waitFor(t, func() bool { return b.calls.Load() >= 1 && m.Admitted.Value() == N })
	close(b.gate) // every later flush proceeds immediately
	c.Close()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// After Close, new requests fail fast.
	if _, err := c.Predict(context.Background(), testWindow(2, 1, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("expected ErrClosed, got %v", err)
	}
}

// waitFor polls cond with a generous deadline; timing-dependent setup
// only, never used to assert ordering.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(100 * time.Microsecond)
	}
}
