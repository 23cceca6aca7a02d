package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"predstream/internal/obs"
)

// request is one admitted prediction waiting for its batch. The reply
// channel is buffered so the dispatcher's send never blocks on a caller
// that gave up (context cancellation).
type request struct {
	window [][]float64
	start  time.Time
	reply  chan result
}

type result struct {
	value float64
	err   error
}

// Coalescer admits prediction requests into a bounded queue and batches
// them for the backend naturally. It runs one dispatcher per core
// (runtime.GOMAXPROCS), so up to that many batches are evaluated at once. A
// request that finds a dispatcher idle is evaluated at once, and a batch is
// whatever queued up (at most Options.MaxBatch) while the dispatchers were
// busy, so batch size follows load and no timer sits on the latency path.
// A full queue sheds new requests with ErrOverloaded instead of building
// unbounded latency. All methods are safe for concurrent use.
type Coalescer struct {
	backend Backend
	opts    Options
	m       *Metrics

	queue chan *request
	stop  chan struct{}
	done  chan struct{} // closed when the last dispatcher has exited

	inFlush atomic.Int32 // dispatchers inside a backend call

	mu     sync.RWMutex // guards closed against enqueue-after-drain
	closed bool
}

// NewCoalescer starts one dispatcher goroutine per core over backend. A
// nil metrics installs unregistered instruments (counted but not
// exported). Call Close to stop.
func NewCoalescer(backend Backend, opts Options, m *Metrics) *Coalescer {
	opts = opts.withDefaults()
	if m == nil {
		m = NewMetrics(nil)
	}
	c := &Coalescer{
		backend: backend,
		opts:    opts,
		m:       m,
		queue:   make(chan *request, opts.QueueDepth),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	n := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			c.dispatch()
		}()
	}
	go func() {
		wg.Wait()
		close(c.done)
	}()
	return c
}

// Options returns the effective (defaulted) options.
func (c *Coalescer) Options() Options { return c.opts }

// Predict submits one raw feature window and blocks until its batch is
// evaluated, the context is done, or the request is shed. The window must
// be backend.Window() steps of backend.Features() values.
func (c *Coalescer) Predict(ctx context.Context, window [][]float64) (float64, error) {
	if len(window) != c.backend.Window() {
		return 0, fmt.Errorf("serve: window has %d steps, want %d", len(window), c.backend.Window())
	}
	for t, row := range window {
		if len(row) != c.backend.Features() {
			return 0, fmt.Errorf("serve: window step %d has %d features, want %d",
				t, len(row), c.backend.Features())
		}
	}
	req := &request{window: window, start: time.Now(), reply: make(chan result, 1)}

	// The read lock pairs with Close's write lock: once Close observes the
	// lock free, no admit can race past the drained queue.
	c.mu.RLock()
	if c.closed {
		c.mu.RUnlock()
		return 0, ErrClosed
	}
	admitted := false
	select {
	case c.queue <- req:
		admitted = true
	default:
	}
	c.mu.RUnlock()
	if !admitted {
		c.m.Shed.Inc()
		return 0, ErrOverloaded
	}
	c.m.Admitted.Inc()

	select {
	case res := <-req.reply:
		if res.err != nil {
			return 0, res.err
		}
		c.m.Latency.Observe(time.Since(req.start).Seconds())
		return res.value, nil
	case <-ctx.Done():
		// The dispatcher still evaluates the request; the buffered reply
		// just goes unread.
		return 0, ctx.Err()
	}
}

// Close stops admitting, flushes every queued request, waits for every
// dispatcher to exit, and is idempotent.
func (c *Coalescer) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.done
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.stop)
	<-c.done
}

// dispatch is one of the queue's consumers. Whenever it waits for an
// opener it is idle, so the opener goes out at once together with whatever
// queued up behind the busy dispatchers; no request waits for company.
//
// It yields once before filling, but only while another dispatcher is
// inside a backend call. Under load, a caller that re-submits wakes an
// idle dispatcher through the scheduler's runnext slot, so the dispatcher
// runs before the other callers that were just answered can re-submit, and
// would flush that one request alone. The yield lets them queue first.
// With no other batch in flight nobody is about to queue, so the yield is
// skipped and a lone request is evaluated without delay.
func (c *Coalescer) dispatch() {
	batch := make([]*request, 0, c.opts.MaxBatch)
	windows := make([][][]float64, 0, c.opts.MaxBatch)
	out := make([]float64, c.opts.MaxBatch)
	for {
		select {
		case req := <-c.queue:
			if c.inFlush.Load() > 0 {
				runtime.Gosched()
			}
			c.flush(c.fill(append(batch[:0], req)), windows, out)
		case <-c.stop:
			// Close has barred new admits: flush what is left and exit.
			for {
				rest := c.fill(batch[:0])
				if len(rest) == 0 {
					return
				}
				c.flush(rest, windows, out)
			}
		}
	}
}

// fill tops batch up to MaxBatch with requests that are already queued,
// without waiting for any.
func (c *Coalescer) fill(batch []*request) []*request {
	for len(batch) < c.opts.MaxBatch {
		select {
		case req := <-c.queue:
			batch = append(batch, req)
		default:
			return batch
		}
	}
	return batch
}

// flush evaluates one micro-batch and delivers per-request results.
func (c *Coalescer) flush(batch []*request, windows [][][]float64, out []float64) {
	windows = windows[:0]
	for _, req := range batch {
		windows = append(windows, req.window)
	}
	c.inFlush.Add(1)
	err := c.backend.PredictBatch(windows, out[:len(batch)])
	c.inFlush.Add(-1)
	c.m.Batches.Inc()
	c.m.BatchSize.Observe(float64(len(batch)))
	if err != nil {
		c.m.Errors.Add(uint64(len(batch)))
	}
	for i, req := range batch {
		if err != nil {
			req.reply <- result{err: fmt.Errorf("serve: backend: %w", err)}
		} else {
			req.reply <- result{value: out[i]}
		}
	}
}

// Collect implements obs.Collector with point-in-time queue pressure
// gauges; register the Coalescer itself to export them.
func (c *Coalescer) Collect() []obs.Family {
	return []obs.Family{
		{
			Name:    "predstream_serve_queue_depth",
			Help:    "Admitted requests waiting to be batched.",
			Type:    obs.TypeGauge,
			Samples: []obs.Sample{{Value: float64(len(c.queue))}},
		},
		{
			Name:    "predstream_serve_queue_capacity",
			Help:    "Admission queue capacity; requests beyond it are shed.",
			Type:    obs.TypeGauge,
			Samples: []obs.Sample{{Value: float64(cap(c.queue))}},
		},
	}
}
