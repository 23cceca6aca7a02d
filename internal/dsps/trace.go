package dsps

import "sync"

// Sampled per-tuple path tracing. A Trace is a fixed-size ring buffer of
// TraceSpans recorded by the executors for a deterministic sample of the
// anchored root tuples flowing through the engine. The sampling decision
// is a pure function of the rootID (splitmix64 against a rate-derived
// threshold), so identically seeded runs sample the same roots, and the
// hot-path cost when tracing is disabled is a single nil check.
//
// Timestamps come from the topology's coarse clock (≤ one coarseTick of
// error) so recording a span never reads the wall clock on the data
// plane; only the ring append takes a lock, and only for sampled spans.

// SpanKind distinguishes the two span shapes a root's path is made of.
type SpanKind uint8

const (
	// SpanEmit is recorded once per sampled root, by the spout executor
	// that emitted it. Start and End coincide (emission is instantaneous
	// on the coarse clock); Fanout carries the number of deliveries.
	SpanEmit SpanKind = iota
	// SpanExec is recorded by a bolt executor for every execution of a
	// tuple descending from a sampled root: QueueNs is the time the tuple
	// waited in the input queue, [StartNs, EndNs] brackets Execute.
	SpanExec
)

// String implements fmt.Stringer.
func (k SpanKind) String() string {
	switch k {
	case SpanEmit:
		return "emit"
	case SpanExec:
		return "exec"
	default:
		return "unknown"
	}
}

// TraceSpan is one hop of a sampled root tuple's path through the
// topology: the spout emission that created the root, or one bolt
// execution of a descendant tuple.
type TraceSpan struct {
	// Seq is the global record sequence number, assigned at append; it
	// orders spans by arrival at the ring and survives wraparound.
	Seq uint64 `json:"seq"`
	// RootID is the acker tracking key of the sampled root; every span of
	// one root's tree shares it.
	RootID uint64 `json:"root_id"`
	// Kind is SpanEmit or SpanExec.
	Kind SpanKind `json:"kind"`
	// Topology names the owning topology.
	Topology string `json:"topology"`
	// Component is the executing component.
	Component string `json:"component"`
	// TaskID is the global id of the executing task.
	TaskID int `json:"task_id"`
	// TaskIndex is the task's index within its component.
	TaskIndex int `json:"task_index"`
	// WorkerID is the worker process hosting the task.
	WorkerID string `json:"worker_id"`
	// SourceComponent names the component that emitted the executed tuple
	// (empty for SpanEmit).
	SourceComponent string `json:"source_component,omitempty"`
	// StartNs and EndNs bracket the span on the engine's coarse clock
	// (Unix nanoseconds, ≤ one coarse tick of error).
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// QueueNs is the time the executed tuple waited in the input queue
	// before Execute (SpanExec only).
	QueueNs int64 `json:"queue_ns,omitempty"`
	// Fanout is the number of downstream deliveries (SpanEmit only).
	Fanout int `json:"fanout,omitempty"`
}

// Trace is the engine's sampled-tuple trace ring. Obtain one from
// Cluster.Trace after configuring ClusterConfig.TraceSampleRate; export
// the contents with internal/obs (JSON and Chrome trace_event formats).
type Trace struct {
	rate      float64
	threshold uint64 // sampled iff splitmix64(rootID) < threshold

	mu      sync.Mutex
	ring    []TraceSpan
	next    int  // write index
	wrapped bool // ring has overwritten at least one span
	seq     uint64
	dropped uint64
}

// defaultTraceBuffer is the ring capacity used when TraceSampleRate is
// set without an explicit TraceBufferSize.
const defaultTraceBuffer = 4096

// newTrace builds a ring for the given sample rate (clamped to [0,1])
// and capacity.
func newTrace(rate float64, size int) *Trace {
	if rate < 0 {
		rate = 0
	}
	if rate > 1 {
		rate = 1
	}
	if size <= 0 {
		size = defaultTraceBuffer
	}
	t := &Trace{rate: rate, ring: make([]TraceSpan, 0, size)}
	switch {
	case rate >= 1:
		t.threshold = ^uint64(0)
	default:
		t.threshold = uint64(rate * float64(1<<63) * 2)
	}
	return t
}

// splitmix64 is the finalizer the sampling decision hashes rootIDs
// through: one extra mixing round decorrelates the decision from the
// splitmix64 stream the rootIDs themselves are drawn from.
//
//dsps:hotpath
func splitmix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// sampled reports whether the root is in the deterministic sample: a
// pure function of rootID, identical across runs and across the tasks
// that touch the root's tree.
//
//dsps:hotpath
func (t *Trace) sampled(rootID uint64) bool {
	if t.threshold == ^uint64(0) {
		return true
	}
	return splitmix64(rootID) < t.threshold
}

// record appends one span, overwriting the oldest when full. Called only
// for sampled spans, so the lock is off the common path.
//
//dsps:hotpath
func (t *Trace) record(s TraceSpan) {
	t.mu.Lock()
	s.Seq = t.seq
	t.seq++
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, s) //dspslint:ignore allocfree bounded ring fill below preallocated cap; wraps in place afterwards
	} else {
		t.ring[t.next] = s
		t.wrapped = true
		t.dropped++
	}
	t.next++
	if t.next == cap(t.ring) {
		t.next = 0
	}
	t.mu.Unlock()
}

// Len returns the number of spans currently held.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// Dropped returns how many spans have been overwritten by wraparound
// since the last Reset.
func (t *Trace) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Recorded returns how many spans have been appended (including any
// later overwritten) since the last Reset.
func (t *Trace) Recorded() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.seq
}

// Spans returns a copy of the buffered spans, oldest first.
func (t *Trace) Spans() []TraceSpan {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceSpan, 0, len(t.ring))
	if t.wrapped {
		out = append(out, t.ring[t.next:]...)
		out = append(out, t.ring[:t.next]...)
	} else {
		out = append(out, t.ring...)
	}
	return out
}
