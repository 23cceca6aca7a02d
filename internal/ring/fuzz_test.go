package ring

import "testing"

// FuzzRingOps model-checks the ring against a model of its slots. Each
// input byte drives one operation on a ring of fuzzed capacity: push,
// pop, close, a len/empty/closed query, the batched PushN and PopN (the
// byte's high bits give the batch length), the consumer's in-place
// Peek+Advance, and the producer's Reclaim of what Advance left behind.
// The fuzzer so explores wrap-around, exact-full and exact-empty
// boundaries, where each side's cached copy of the other side's index
// goes stale, and a Push that overtakes a Reclaim.
func FuzzRingOps(f *testing.F) {
	f.Add(uint8(8), []byte{0, 0, 0, 1, 1, 1, 1, 2, 0, 1, 2})
	f.Add(uint8(1), []byte{0, 0, 1, 1, 0, 1})
	f.Add(uint8(3), []byte{0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 2})
	f.Add(uint8(200), []byte{0, 1, 0, 0, 2, 3, 0, 1, 1, 2})
	// PushN past full, then PopN across the wrap, on a 4-slot ring.
	f.Add(uint8(3), []byte{0 | 3<<3, 4 | 6<<3, 2, 5 | 3<<3, 4 | 3<<3, 5 | 7<<3, 2})
	// A full 2-slot ring cycling buffers: Peek+Advance, Reclaim, Push.
	f.Add(uint8(1), []byte{0, 0, 6, 7, 0, 6, 7, 0, 6, 6, 7, 7, 2, 1})
	// Releases the producer never reclaims until its pushes overtake them.
	f.Add(uint8(3), []byte{4 | 4<<3, 6, 6, 6, 0, 0, 0, 7, 7, 1, 7, 2})
	f.Add(uint8(5), []byte{4 | 8<<3, 6, 1, 6, 7, 7, 7, 5 | 2<<3, 6, 7, 4 | 5<<3, 2, 3, 7, 6, 2})
	f.Fuzz(func(t *testing.T, capByte uint8, ops []byte) {
		r, ok := New[uint64](int(capByte%64) + 1)
		if !ok {
			t.Fatalf("New(%d) rejected", int(capByte%64)+1)
		}
		size := len(r.buf)
		// slots[i] is what element i (in push order) leaves for Reclaim:
		// its value until Pop or PopN clears it, 0 after. Values start at
		// 1, so 0 is never a pushed value.
		var slots []uint64
		head, reclaimed := 0, 0
		next, closed := uint64(1), false
		push := func() {
			if i := len(slots); reclaimed+size <= i {
				reclaimed = i + 1 - size // the slot's element is dropped
			}
			slots = append(slots, next)
		}
		for _, op := range ops {
			k := int(op >> 3)
			buffered := len(slots) - head
			switch op % 8 {
			case 0:
				want := !closed && buffered < size
				if got := r.Push(next); got != want {
					t.Fatalf("Push -> %v with %d/%d buffered, closed %v", got, buffered, size, closed)
				}
				if want {
					push()
				}
				next++
			case 1:
				v, got := r.Pop()
				if want := buffered > 0; got != want {
					t.Fatalf("Pop -> %v with %d buffered", got, buffered)
				}
				if got {
					if v != slots[head] {
						t.Fatalf("Pop = %d, want %d", v, slots[head])
					}
					slots[head] = 0
					head++
				}
			case 2:
				if r.Len() != buffered || r.Empty() != (buffered == 0) || r.Closed() != closed {
					t.Fatalf("Len/Empty/Closed = %d/%v/%v, model %d/%v", r.Len(), r.Empty(), r.Closed(), buffered, closed)
				}
			case 3:
				r.Close()
				closed = true
			case 4:
				vs := make([]uint64, k)
				for i := range vs {
					vs[i] = next + uint64(i)
				}
				want := 0
				if !closed {
					want = min(k, size-buffered)
				}
				if got := r.PushN(vs); got != want {
					t.Fatalf("PushN(%d) = %d with %d/%d buffered, closed %v, want %d", k, got, buffered, size, closed, want)
				}
				for range want {
					push()
					next++
				}
				next += uint64(k - want)
			case 5:
				dst := make([]uint64, k)
				want := min(k, buffered)
				if got := r.PopN(dst); got != want {
					t.Fatalf("PopN(%d) = %d with %d buffered", k, got, buffered)
				}
				for i := 0; i < want; i++ {
					if dst[i] != slots[head] {
						t.Fatalf("PopN[%d] = %d, want %d", i, dst[i], slots[head])
					}
					slots[head] = 0
					head++
				}
			case 6:
				v, got := r.Peek()
				if want := buffered > 0; got != want {
					t.Fatalf("Peek -> %v with %d buffered", got, buffered)
				}
				if got {
					if v != slots[head] {
						t.Fatalf("Peek = %d, want %d", v, slots[head])
					}
					r.Advance()
					head++
				}
			case 7:
				v, got := r.Reclaim()
				if want := reclaimed < head; got != want {
					t.Fatalf("Reclaim -> %v with %d released slots", got, head-reclaimed)
				}
				if got {
					if v != slots[reclaimed] {
						t.Fatalf("Reclaim = %d, want %d", v, slots[reclaimed])
					}
					reclaimed++
				}
			}
		}
	})
}
