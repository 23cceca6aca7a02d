package ring

import "testing"

// FuzzRingOps model-checks the ring against a plain slice FIFO. Each
// input byte drives one operation (push, pop, close, len/empty/closed
// query) on a ring of fuzzed capacity, so the fuzzer explores
// wrap-around, exact-full and exact-empty boundaries, where each side's
// cached copy of the other side's index goes stale.
func FuzzRingOps(f *testing.F) {
	f.Add(uint8(8), []byte{0, 0, 0, 1, 1, 1, 1, 2, 0, 1, 2})
	f.Add(uint8(1), []byte{0, 0, 1, 1, 0, 1})
	f.Add(uint8(3), []byte{0, 0, 0, 0, 0, 1, 0, 1, 1, 1, 2})
	f.Add(uint8(200), []byte{0, 1, 0, 0, 2, 3, 0, 1, 1, 2})
	f.Fuzz(func(t *testing.T, capByte uint8, ops []byte) {
		r, ok := New[uint64](int(capByte%64) + 1)
		if !ok {
			t.Fatalf("New(%d) rejected", int(capByte%64)+1)
		}
		var model []uint64
		next, closed := uint64(0), false
		for _, op := range ops {
			switch op % 4 {
			case 0:
				want := !closed && len(model) < len(r.buf)
				if got := r.Push(next); got != want {
					t.Fatalf("Push -> %v with %d/%d buffered, closed %v", got, len(model), len(r.buf), closed)
				}
				if want {
					model = append(model, next)
				}
				next++
			case 1:
				v, got := r.Pop()
				if want := len(model) > 0; got != want {
					t.Fatalf("Pop -> %v with %d buffered", got, len(model))
				}
				if got {
					if v != model[0] {
						t.Fatalf("Pop = %d, want %d", v, model[0])
					}
					model = model[1:]
				}
			case 2:
				if r.Len() != len(model) || r.Empty() != (len(model) == 0) || r.Closed() != closed {
					t.Fatalf("Len/Empty/Closed = %d/%v/%v, model %d/%v", r.Len(), r.Empty(), r.Closed(), len(model), closed)
				}
			case 3:
				r.Close()
				closed = true
			}
		}
	})
}
