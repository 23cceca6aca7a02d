package ring

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestZeroCapacityRejected(t *testing.T) {
	for _, c := range []int{0, -1, -1024} {
		if r, ok := New[int](c); ok || r != nil {
			t.Fatalf("New(%d) = (%v, %v), want rejection", c, r, ok)
		}
	}
}

func TestCapacityRoundsToPowerOfTwo(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 1000: 1024, 1024: 1024}
	for in, want := range cases {
		r, ok := New[int](in)
		if !ok {
			t.Fatalf("New(%d) rejected", in)
		}
		if r.Cap() != want {
			t.Fatalf("New(%d).Cap() = %d, want %d", in, r.Cap(), want)
		}
	}
}

// TestWrapAround drives the free-running indices through many times the
// capacity so every slot is reused and the mask arithmetic is exercised
// across the wrap boundary, checking FIFO order and exact full/empty
// behavior at capacity.
func TestWrapAround(t *testing.T) {
	r, _ := New[int](8)
	next, got := 0, 0
	for round := 0; round < 1000; round++ {
		// Fill to capacity; the next push must fail.
		for i := 0; i < r.Cap(); i++ {
			if !r.Push(next) {
				t.Fatalf("round %d: push %d failed below capacity", round, i)
			}
			next++
		}
		if r.Push(-1) {
			t.Fatalf("round %d: push succeeded at capacity", round)
		}
		if r.Len() != r.Cap() {
			t.Fatalf("round %d: Len = %d at capacity %d", round, r.Len(), r.Cap())
		}
		// Drain fully in FIFO order; the next pop must fail.
		for i := 0; i < r.Cap(); i++ {
			v, ok := r.Pop()
			if !ok || v != got {
				t.Fatalf("round %d: pop = (%d, %v), want (%d, true)", round, v, ok, got)
			}
			got++
		}
		if _, ok := r.Pop(); ok {
			t.Fatalf("round %d: pop succeeded on empty ring", round)
		}
		if !r.Empty() {
			t.Fatalf("round %d: not empty after drain", round)
		}
	}
}

func TestBatchWrapAround(t *testing.T) {
	r, _ := New[int](8)
	src := make([]int, 5)
	dst := make([]int, 5)
	next, got := 0, 0
	for round := 0; round < 2000; round++ {
		for i := range src {
			src[i] = next + i
		}
		n := r.PushBatch(src)
		next += n
		if free := r.Cap() - r.Len(); n != 5 && n != 5-(5-free)-0 && r.Len() != r.Cap() {
			t.Fatalf("round %d: partial push %d with ring not full", round, n)
		}
		m := r.PopBatch(dst[:3])
		for i := 0; i < m; i++ {
			if dst[i] != got+i {
				t.Fatalf("round %d: popped %d, want %d", round, dst[i], got+i)
			}
		}
		got += m
	}
	// Drain the remainder and confirm no element was lost or reordered.
	for {
		v, ok := r.Pop()
		if !ok {
			break
		}
		if v != got {
			t.Fatalf("drain: popped %d, want %d", v, got)
		}
		got++
	}
	if got != next {
		t.Fatalf("drained %d elements, pushed %d", got, next)
	}
}

func TestCloseStopsPushNotPop(t *testing.T) {
	r, _ := New[int](4)
	r.Push(1)
	r.Push(2)
	r.Close()
	if !r.Closed() {
		t.Fatal("Closed() = false after Close")
	}
	if r.Push(3) {
		t.Fatal("push succeeded on closed ring")
	}
	if r.PushBatch([]int{3, 4}) != 0 {
		t.Fatal("batch push succeeded on closed ring")
	}
	for want := 1; want <= 2; want++ {
		if v, ok := r.Pop(); !ok || v != want {
			t.Fatalf("pop after close = (%d, %v), want (%d, true)", v, ok, want)
		}
	}
}

// TestCloseWhileParked closes the producer side while the consumer is
// parked on its Waiter: the consumer must observe the close and exit
// rather than sleep forever. Run with -race this also checks the
// park/wake protocol for data races.
func TestCloseWhileParked(t *testing.T) {
	for trial := 0; trial < 200; trial++ {
		r, _ := New[int](4)
		w := NewWaiter()
		done := make(chan int, 1)
		go func() { // consumer
			sum := 0
			for {
				if v, ok := r.Pop(); ok {
					sum += v
					continue
				}
				w.Prepare()
				if !r.Empty() { // re-check after Prepare
					w.Cancel()
					continue
				}
				if r.Closed() {
					w.Cancel()
					done <- sum
					return
				}
				select {
				case <-w.C():
				case <-time.After(2 * time.Second):
					w.Cancel()
					done <- -1
					return
				}
			}
		}()
		// Producer: a few pushes, then close, each followed by Wake.
		for i := 1; i <= 3; i++ {
			for !r.Push(i) {
				runtime.Gosched()
			}
			w.Wake()
		}
		r.Close()
		w.Wake()
		if got := <-done; got != 6 {
			t.Fatalf("trial %d: consumer returned %d, want 6", trial, got)
		}
	}
}

// TestConcurrentSPSC hammers one producer against one consumer through
// a tiny ring; under -race this validates the hand-off establishes
// happens-before for the transported values.
func TestConcurrentSPSC(t *testing.T) {
	const total = 100000
	r, _ := New[uint64](16)
	w := NewWaiter()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // consumer
		defer wg.Done()
		want := uint64(0)
		buf := make([]uint64, 8)
		for want < total {
			n := r.PopBatch(buf)
			if n == 0 {
				w.Prepare()
				if r.Empty() {
					select {
					case <-w.C():
					case <-time.After(5 * time.Second):
						t.Error("consumer stalled")
						w.Cancel()
						return
					}
				} else {
					w.Cancel()
				}
				continue
			}
			for i := 0; i < n; i++ {
				if buf[i] != want {
					t.Errorf("got %d, want %d", buf[i], want)
					return
				}
				want++
			}
		}
	}()
	for i := uint64(0); i < total; {
		if r.Push(i) {
			i++
			w.Wake()
		} else {
			// Yield on a full ring: on a single-P host the consumer
			// cannot drain until the producer gives up the processor.
			runtime.Gosched()
		}
	}
	wg.Wait()
}

func TestWaiterSpuriousTokenDrained(t *testing.T) {
	w := NewWaiter()
	w.Prepare()
	w.Wake() // deposits a token
	w.Cancel()
	w.Prepare()
	select {
	case <-w.C():
		t.Fatal("stale token survived Cancel")
	default:
	}
	w.Cancel()
}

func BenchmarkPushPop(b *testing.B) {
	r, _ := New[uint64](1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Push(uint64(i))
		r.Pop()
	}
}

func BenchmarkBatch64(b *testing.B) {
	r, _ := New[uint64](1024)
	src := make([]uint64, 64)
	dst := make([]uint64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.PushBatch(src)
		r.PopBatch(dst)
	}
}
