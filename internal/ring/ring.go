// Package ring provides a bounded, lock-free single-producer
// single-consumer (SPSC) ring buffer and the parking primitive used to
// wait on one when it is empty.
//
// The ring is the data-plane hand-off for the stream engine
// (internal/dsps): each producer→consumer edge gets its own SPSC so
// neither side ever takes a lock or contends a CAS on the common path.
// The discipline is strict: exactly one goroutine may call the push
// side (Push/Close) and exactly one goroutine the pop side (Pop) over the
// ring's lifetime. `dspslint`'s ringmisuse analyzer enforces the
// ownership annotations in internal/dsps.
//
// Layout follows the classic Lamport queue: a power-of-two slot array
// indexed by free-running head/tail counters masked into the buffer.
// head and tail live on separate cache lines so the producer's tail
// stores never false-share with the consumer's head stores, and each
// side keeps a local cache of the opposite index so the common case
// (ring neither full nor empty) touches only one shared word.
//
// A consumer may also take an element in place: Peek reads it, Advance
// releases its slot without clearing it, and the producer's Reclaim later
// takes the element back out of the slot. The stream engine sends batch
// buffers that way, so that each comes back to its producer through the
// ring it went by.
//
// Go's sync/atomic operations are sequentially consistent, which is
// stronger than the acquire/release pairs the algorithm needs, and the
// race detector models them as synchronization — the package is
// race-clean by construction, verified by the -race stress tests.
package ring

import "sync/atomic"

// cacheLine is the assumed coherence granularity. 64 bytes covers
// x86-64 and most arm64 parts; oversizing only wastes a few bytes.
const cacheLine = 64

// SPSC is a bounded single-producer single-consumer ring buffer.
// The zero value is not usable; construct with New.
type SPSC[T any] struct {
	buf  []T
	mask uint64

	_    [cacheLine]byte
	head atomic.Uint64 // next slot to pop; written by consumer only
	// cachedTail is the producer-visible snapshot of tail taken by the
	// consumer; consumer-owned, no atomics needed.
	cachedTail uint64

	_    [cacheLine - 16]byte
	tail atomic.Uint64 // next slot to push; written by producer only
	// cachedHead is the consumer-visible snapshot of head taken by the
	// producer; producer-owned, no atomics needed.
	cachedHead uint64
	// reclaimed is the next released slot Reclaim looks at: slots in
	// [reclaimed, head) still hold what the consumer left there.
	// Producer-owned; reclaimed ≤ cachedHead always.
	reclaimed uint64

	_      [cacheLine - 24]byte
	closed atomic.Bool
}

// New builds an SPSC ring with at least the requested capacity,
// rounded up to the next power of two. Zero or negative capacities are
// rejected: a zero-capacity ring can never transfer an element, so
// asking for one is always a configuration bug.
func New[T any](capacity int) (*SPSC[T], bool) {
	if capacity <= 0 {
		return nil, false
	}
	n := uint64(1)
	for n < uint64(capacity) {
		n <<= 1
	}
	return &SPSC[T]{buf: make([]T, n), mask: n - 1}, true
}

// Len returns the number of buffered elements. It is exact when called
// from either owning goroutine and a point-in-time estimate otherwise.
func (r *SPSC[T]) Len() int {
	t := r.tail.Load()
	h := r.head.Load()
	return int(t - h)
}

// Empty reports whether the ring currently holds no elements.
func (r *SPSC[T]) Empty() bool { return r.tail.Load() == r.head.Load() }

// Close marks the ring closed. Producer-side call; after Close every
// Push fails, while the consumer may keep draining buffered elements.
func (r *SPSC[T]) Close() { r.closed.Store(true) }

// Closed reports whether Close has been called.
func (r *SPSC[T]) Closed() bool { return r.closed.Load() }

// Push appends one element. It returns false when the ring is full or
// closed. Producer-side only.
func (r *SPSC[T]) Push(v T) bool {
	if r.closed.Load() {
		return false
	}
	t := r.tail.Load()
	if t-r.cachedHead >= uint64(len(r.buf)) {
		r.cachedHead = r.head.Load()
		if t-r.cachedHead >= uint64(len(r.buf)) {
			return false
		}
	}
	if r.reclaimed+uint64(len(r.buf)) <= t {
		// The slot still holds an element no Reclaim took; it is dropped.
		r.reclaimed = t + 1 - uint64(len(r.buf))
	}
	r.buf[t&r.mask] = v
	r.tail.Store(t + 1)
	return true
}

// Pop removes and returns the oldest element, clearing its slot. The
// second result is false when the ring is empty. Consumer-side only.
func (r *SPSC[T]) Pop() (T, bool) {
	v, ok := r.Peek()
	if ok {
		var zero T
		r.buf[r.head.Load()&r.mask] = zero // release references for GC
		r.Advance()
	}
	return v, ok
}

// Reclaim takes back the oldest element the consumer released with
// Advance (the zero value where Pop took it), clearing its slot. The
// second result is false when no released slot is left to take. A slot
// Push reuses before Reclaim reaches it drops its element. Producer-side
// only.
func (r *SPSC[T]) Reclaim() (T, bool) {
	var zero T
	if r.reclaimed == r.cachedHead {
		r.cachedHead = r.head.Load()
		if r.reclaimed == r.cachedHead {
			return zero, false
		}
	}
	i := r.reclaimed & r.mask
	v := r.buf[i]
	r.buf[i] = zero
	r.reclaimed++
	return v, true
}

// Peek returns the oldest element without removing it. The second result
// is false when the ring is empty. Consumer-side only.
func (r *SPSC[T]) Peek() (T, bool) {
	h := r.head.Load()
	if h == r.cachedTail {
		r.cachedTail = r.tail.Load()
		if h == r.cachedTail {
			var zero T
			return zero, false
		}
	}
	return r.buf[h&r.mask], true
}

// Advance removes the element Peek returned, leaving it in its slot for
// the producer's Reclaim. The consumer must not touch the element after
// the call. Consumer-side only, and only after a Peek that found one.
func (r *SPSC[T]) Advance() {
	r.head.Store(r.head.Load() + 1)
}

// PushN appends the longest prefix of vs that fits and returns its
// length; a closed ring takes none. One tail store publishes the whole
// prefix. Producer-side only.
func (r *SPSC[T]) PushN(vs []T) int {
	if r.closed.Load() {
		return 0
	}
	t := r.tail.Load()
	size := uint64(len(r.buf))
	if size-(t-r.cachedHead) < uint64(len(vs)) {
		r.cachedHead = r.head.Load()
	}
	n := min(size-(t-r.cachedHead), uint64(len(vs)))
	if n == 0 {
		return 0
	}
	if r.reclaimed+size < t+n {
		r.reclaimed = t + n - size // see Push
	}
	for i := uint64(0); i < n; i++ {
		r.buf[(t+i)&r.mask] = vs[i]
	}
	r.tail.Store(t + n)
	return int(n)
}

// PopN moves up to len(dst) of the oldest elements into dst and returns
// how many it moved; one head store releases them all. Consumer-side
// only.
func (r *SPSC[T]) PopN(dst []T) int {
	var zero T
	h := r.head.Load()
	if r.cachedTail-h < uint64(len(dst)) {
		r.cachedTail = r.tail.Load()
	}
	n := min(r.cachedTail-h, uint64(len(dst)))
	for i := uint64(0); i < n; i++ {
		dst[i] = r.buf[(h+i)&r.mask]
		r.buf[(h+i)&r.mask] = zero // release references for GC
	}
	if n > 0 {
		r.head.Store(h + n)
	}
	return int(n)
}
