package dsps

import (
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"time"
)

// FuzzGroupingRatios feeds DynamicGrouping.SetRatios arbitrary float64
// vectors (including NaN/Inf/negative/denormal payloads) and checks that
// validation agrees with an independent predicate, that accepted vectors
// normalize to a distribution, and that selection honors the plan: indices
// in range, zero-ratio tasks bypassed, observed counts tracking the
// requested share within smooth-WRR tolerance.
func FuzzGroupingRatios(f *testing.F) {
	le := binary.LittleEndian
	enc := func(fs ...float64) []byte {
		var out []byte
		for _, v := range fs {
			out = le.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	f.Add(enc(0.7, 0.3))
	f.Add(enc(1, 0, 1))
	f.Add(enc(math.NaN(), 1))
	f.Add(enc(math.Inf(1), 1))
	f.Add(enc(-1, 2))
	f.Add(enc(math.MaxFloat64, math.MaxFloat64))
	f.Add(enc(1e-300, 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 8
		if n == 0 {
			return
		}
		if n > 8 {
			n = 8
		}
		ratios := make([]float64, n)
		for i := range ratios {
			ratios[i] = math.Float64frombits(le.Uint64(data[8*i:]))
		}

		g := &DynamicGrouping{}
		err := g.SetRatios(ratios)

		valid := true
		var sum float64
		for _, r := range ratios {
			if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
				valid = false
				break
			}
			sum += r
		}
		if valid && (sum <= 0 || math.IsInf(sum, 0)) {
			valid = false
		}
		if valid != (err == nil) {
			t.Fatalf("validation disagreement: ratios=%v err=%v, independent predicate says valid=%v", ratios, err, valid)
		}
		if err != nil {
			if g.Ratios() != nil {
				t.Fatalf("rejected SetRatios(%v) still mutated the grouping: %v", ratios, g.Ratios())
			}
			return
		}

		norm := g.Ratios()
		if len(norm) != n {
			t.Fatalf("Ratios() length %d, want %d", len(norm), n)
		}
		var nsum float64
		for i, r := range norm {
			if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
				t.Fatalf("normalized ratio[%d]=%v invalid (input %v)", i, r, ratios)
			}
			nsum += r
		}
		if math.Abs(nsum-1) > 1e-9 {
			t.Fatalf("normalized ratios %v sum to %v, want 1 (input %v)", norm, nsum, ratios)
		}

		const rounds = 2000
		counts := make([]int, n)
		for i := 0; i < rounds; i++ {
			idx := g.Select(nil, n)
			if idx < 0 || idx >= n {
				t.Fatalf("Select returned %d for %d tasks", idx, n)
			}
			counts[idx]++
		}
		for i, r := range norm {
			if r == 0 && counts[i] != 0 {
				t.Fatalf("zero-ratio task %d received %d tuples (ratios %v)", i, counts[i], ratios)
			}
			// Smooth WRR keeps every task within a small constant of its
			// exact share at all times.
			if diff := math.Abs(float64(counts[i]) - r*rounds); diff > float64(2*n) {
				t.Fatalf("task %d got %d of %d tuples, want share %.4f ±%d (ratios %v)",
					i, counts[i], rounds, r, 2*n, ratios)
			}
		}
	})
}

// FuzzHistogramQuantile is the fuzz form of
// TestPropertyQuantileWithinBucketBounds: any quantile of a single-value
// histogram must land within the bucket's factor-of-2 resolution.
func FuzzHistogramQuantile(f *testing.F) {
	f.Add(uint32(1000), uint8(50))
	f.Add(uint32(1), uint8(0))
	f.Add(uint32(99999), uint8(255))
	f.Add(uint32(1000), uint8(99)) // q = 1.0: rank must clamp to the population
	f.Fuzz(func(t *testing.T, usRaw uint32, qRaw uint8) {
		us := int(usRaw%100000) + 1
		d := time.Duration(us) * time.Microsecond
		q := (float64(qRaw%100) + 1) / 100 // (0, 1] inclusive of q = 1
		var h latencyHist
		for i := 0; i < 10; i++ {
			h.observe(d)
		}
		counts := h.snapshot()
		got := HistogramQuantile(counts, q)
		if got > 2*d || got*2 < d {
			t.Fatalf("q=%.2f of %v point mass = %v, outside factor-2 band", q, d, got)
		}
		// Monotonicity in q: the fuzzed quantile sits between the extremes.
		lo, hi := HistogramQuantile(counts, 0.01), HistogramQuantile(counts, 1)
		if got < lo || got > hi {
			t.Fatalf("q=%.2f gave %v outside [q=0.01 %v, q=1 %v]", q, got, lo, hi)
		}
	})
}

// FuzzAckerTrees is the fuzz form of TestPropertyAckerRandomTrees: XOR
// acking over a random tuple tree in a slab slot completes the root
// exactly when every bolt's op has been applied, in any order, and stale
// duplicates of those ops change nothing once the root is done — not even
// after its slot is reused.
func FuzzAckerTrees(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(2))
	f.Add(int64(42), uint8(0), uint8(0))
	f.Add(int64(-7), uint8(255), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, fanRaw, depthRaw uint8) {
		if !ackerRandomTreeProperty(seed, fanRaw, depthRaw) {
			t.Fatalf("acker tree invariant failed for seed=%d fan=%d depth=%d", seed, fanRaw, depthRaw)
		}
	})
}

// slabModelRoot is the reference model's view of one registered root.
type slabModelRoot struct {
	id      uint64
	slot    uint32
	pool    int
	startNs int64
	avail   []uint64        // edges produced that no generated op consumes yet
	open    map[uint64]bool // edges seen an odd number of times by the acker
	applied []ackOp         // ops applied so far, for stale duplicates
	state   int             // slabLive, slabDone (completion queued), slabFreed
}

const (
	slabLive = iota
	slabDone
	slabFreed
)

// FuzzAckerSlabOps drives the slab acker the way the engine does — two
// spouts whose pools share the slab register roots, bolts build ops that
// travel and arrive in any order, spouts sweep and deliver — against a
// map-based reference model: each root's set of edges seen an odd number
// of times, which is empty exactly when the tree is complete. Op kinds:
// register, build an XOR op, build a fail op, sweep a spout, deliver a
// spout's completions, step the clock, apply an op in transit, and
// re-apply a stale duplicate of an op of a finished root. It checks that a
// slot is never handed out while its root is live or its completion
// undelivered, that every root completes exactly once with the model's
// verdict and in the model's order, that stragglers (also on reused
// slots) complete nothing, that sweeps expire exactly the model's overdue
// roots in (start, root) order, and that inFlight counts the slots not
// yet taken back.
func FuzzAckerSlabOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 0, 7, 0, 0, 5, 0, 0, 0, 0, 0, 2, 0, 1, 7, 0, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 0, 6, 200, 0, 4, 0, 0, 5, 0, 0, 8, 0, 0, 0, 0, 0, 2, 0, 0, 3, 1, 0, 7, 1, 0})
	f.Add([]byte{1, 2, 3, 1, 2, 3, 1, 2, 3, 3, 0, 0, 4, 0, 0, 5, 1, 0, 0, 0, 0, 2, 1, 9, 7, 3, 0, 7, 0, 0})
	// A root times out, its slot is freed and reused, then a straggler op
	// for the old root arrives before the new root's own.
	f.Add([]byte{0, 0, 0, 2, 0, 0, 6, 200, 0, 4, 0, 0, 5, 0, 0, 0, 0, 0, 2, 1, 0, 7, 0, 0, 7, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		const timeout = 50 * time.Millisecond
		a := newAcker(timeout, 8, nil)
		clk := fakeClock{ns: 1e9}
		clk.install(a)
		pools := []*slotPool{{owner: 0}, {owner: 1}}
		for _, p := range pools {
			a.grow(p)
		}
		var roots []*slabModelRoot
		bySlot := map[uint32]*slabModelRoot{} // live or done, not yet freed
		queued := [2][]*slabModelRoot{}       // each spout's completions, in order
		type transit struct {
			op    ackOp
			m     *slabModelRoot
			edges []uint64 // the consumed and produced edges the op XORs
		}
		var inTransit []transit
		var ids uint64
		draw := func() uint64 {
			ids += 0x9e3779b97f4a7c15
			z := ids
			z ^= z >> 31
			z *= 0xbf58476d1ce4e5b9
			return z ^ z>>29 | 1
		}
		toggle := func(m *slabModelRoot, e uint64) {
			if m.open[e] {
				delete(m.open, e)
			} else {
				m.open[e] = true
			}
		}
		// finish marks m complete in the model and checks that d, the
		// completion the acker queued for it, says so.
		finish := func(m *slabModelRoot, d ackDone, ok bool) {
			t.Helper()
			if d.ok != ok || d.slot != m.slot || d.msgID != m.id {
				t.Fatalf("root %x completion %+v, want ok=%v slot %d", m.id, d, ok, m.slot)
			}
			m.state = slabDone
			queued[m.pool] = append(queued[m.pool], m)
		}
		pick := func(x byte) *slabModelRoot {
			if len(roots) == 0 {
				return nil
			}
			return roots[int(x)%len(roots)]
		}
		// Bound the work per input: the model scans every root per op.
		data = data[:min(len(data), 3*2000)]
		for len(data) >= 3 {
			op, x, y := data[0], data[1], data[2]
			data = data[3:]
			switch op % 9 {
			case 0, 1: // register
				if len(bySlot) >= 200 {
					break
				}
				m := &slabModelRoot{id: draw(), pool: int(x) & 1, startNs: clk.ns, open: map[uint64]bool{}}
				var xor uint64
				for range 1 + int(y)%3 {
					e := draw()
					m.avail = append(m.avail, e)
					toggle(m, e)
					xor ^= e
				}
				m.slot = a.register(pools[m.pool], m.id, xor, m.id)
				if old := bySlot[m.slot]; old != nil {
					t.Fatalf("slot %d handed to root %x while root %x (state %d) holds it", m.slot, m.id, old.id, old.state)
				}
				if a.owner(m.slot) != m.pool {
					t.Fatalf("slot %d owned by spout %d, want %d", m.slot, a.owner(m.slot), m.pool)
				}
				bySlot[m.slot] = m
				roots = append(roots, m)
			case 2: // a bolt consumes one available edge and produces 0..2
				m := pick(x)
				if m == nil || len(m.avail) == 0 {
					break
				}
				i := int(y) % len(m.avail)
				consumed := m.avail[i]
				m.avail = slices.Delete(m.avail, i, i+1)
				var produced []uint64
				for range int(y>>4) % 3 {
					e := draw()
					produced = append(produced, e)
					m.avail = append(m.avail, e)
				}
				inTransit = append(inTransit, transit{xorOp(m.id, m.slot, consumed, produced...), m, append(produced, consumed)})
			case 3: // a bolt fails the root
				if m := pick(x); m != nil {
					inTransit = append(inTransit, transit{failOp(m.id, m.slot), m, nil})
				}
			case 4: // sweep one spout
				pi := int(x) & 1
				var want []*slabModelRoot
				for _, m := range roots {
					if m.pool == pi && m.state == slabLive && m.startNs < clk.ns-int64(timeout) {
						want = append(want, m)
					}
				}
				slices.SortFunc(want, func(p, q *slabModelRoot) int {
					if p.startNs != q.startNs {
						return int(p.startNs - q.startNs)
					}
					if p.id < q.id {
						return -1
					}
					return 1
				})
				p := pools[pi]
				before := p.nDone
				a.sweep(p)
				got := p.done[before:p.nDone]
				if len(got) != len(want) {
					t.Fatalf("sweep expired %d roots, model %d", len(got), len(want))
				}
				for i, m := range want {
					finish(m, got[i], false)
				}
			case 5: // deliver one spout's completions
				pi := int(x) & 1
				got := deliver(a, pools[pi])
				if len(got) != len(queued[pi]) {
					t.Fatalf("spout %d delivered %d, model %d", pi, len(got), len(queued[pi]))
				}
				for i, m := range queued[pi] {
					if got[i].msgID != m.id {
						t.Fatalf("spout %d delivery %d is root %v, model %x", pi, i, got[i].msgID, m.id)
					}
					m.state = slabFreed
					delete(bySlot, m.slot)
				}
				queued[pi] = nil
			case 6: // clock step, up to 2.5 timeouts
				clk.ns += int64(x) * int64(timeout) / 100
			case 7: // an op in transit arrives
				if len(inTransit) == 0 {
					break
				}
				i := int(x) % len(inTransit)
				tr := inTransit[i]
				inTransit = slices.Delete(inTransit, i, i+1)
				m, p := tr.m, pools[tr.m.pool]
				before := p.nDone
				a.apply(p, tr.op)
				if m.state != slabLive {
					if p.nDone != before {
						t.Fatalf("straggler op for finished root %x completed slot %d", m.id, m.slot)
					}
					break
				}
				m.applied = append(m.applied, tr.op)
				for _, e := range tr.edges {
					toggle(m, e)
				}
				complete := tr.op.fail || len(m.open) == 0
				if p.nDone != before+btoi(complete) {
					t.Fatalf("root %x: op queued %d completions with %d edges open (fail %v)",
						m.id, p.nDone-before, len(m.open), tr.op.fail)
				}
				if complete {
					finish(m, p.done[before], !tr.op.fail)
				}
			case 8: // a stale duplicate of an op of a finished root
				m := pick(x)
				if m == nil || m.state == slabLive || len(m.applied) == 0 {
					break
				}
				p := pools[m.pool]
				before := p.nDone
				a.apply(p, m.applied[int(y)%len(m.applied)])
				if p.nDone != before {
					t.Fatalf("stale duplicate for root %x completed slot %d", m.id, m.slot)
				}
			}
			if a.inFlight() != len(bySlot) {
				t.Fatalf("inFlight = %d, model holds %d slots", a.inFlight(), len(bySlot))
			}
		}
		// Every root still live times out exactly once.
		clk.ns += 2 * int64(timeout)
		expired := map[uint64]bool{}
		for _, p := range pools {
			before := p.nDone
			a.sweep(p)
			for _, d := range p.done[before:p.nDone] {
				expired[d.msgID.(uint64)] = true
			}
		}
		for _, m := range roots {
			if (m.state == slabLive) != expired[m.id] {
				t.Fatalf("final sweep: root %x state %d, expired %v", m.id, m.state, expired[m.id])
			}
		}
	})
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
