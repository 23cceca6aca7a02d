package dsps

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Grouping decides which downstream task of a subscription receives a
// tuple. Select is called from the emitting executor's goroutine;
// implementations must be safe for concurrent use because several upstream
// tasks share one grouping instance per subscription edge.
type Grouping interface {
	// Select returns the index in [0, numTasks) of the receiving task.
	Select(t *Tuple, numTasks int) int
	// Name identifies the grouping for diagnostics.
	Name() string
}

// ShuffleGrouping distributes tuples round-robin across downstream tasks,
// which is what Storm's shuffle grouping converges to and keeps unit tests
// deterministic.
type ShuffleGrouping struct {
	next atomic.Uint64
}

// Name implements Grouping.
func (g *ShuffleGrouping) Name() string { return "shuffle" }

// Select implements Grouping.
//
//dsps:hotpath
func (g *ShuffleGrouping) Select(_ *Tuple, numTasks int) int {
	return int((g.next.Add(1) - 1) % uint64(numTasks))
}

// FieldsGrouping routes tuples with equal values in the selected fields to
// the same downstream task (hash partitioning), as stateful bolts such as
// counters require.
type FieldsGrouping struct {
	Fields []string
}

// Name implements Grouping.
func (g *FieldsGrouping) Name() string { return "fields" }

// Select implements Grouping.
//
//dsps:hotpath
func (g *FieldsGrouping) Select(t *Tuple, numTasks int) int {
	return int(g.key(t) % uint64(numTasks))
}

// FNV-1a, inlined so hashing common value types needs no hash.Hash64
// allocation or fmt round-trip on the emit path.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = fnvByte(h, byte(v))
		v >>= 8
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = fnvByte(h, s[i])
	}
	return h
}

// key hashes the grouping fields of a tuple. Values are folded by dynamic
// type (strings and numbers directly, anything else through fmt); each
// field is terminated by a zero byte so adjacent fields cannot collide by
// concatenation.
//
//dsps:hotpath
func (g *FieldsGrouping) key(t *Tuple) uint64 {
	h := fnvOffset64
	for _, f := range g.Fields {
		v, err := t.GetValue(f)
		if err != nil {
			// A missing grouping field is a topology bug; skip it
			// deterministically rather than crash the executor.
			continue
		}
		switch x := v.(type) {
		case string:
			h = fnvString(h, x)
		case int:
			h = fnvUint64(h, uint64(int64(x)))
		case int64:
			h = fnvUint64(h, uint64(x))
		case uint64:
			h = fnvUint64(h, x)
		case float64:
			h = fnvUint64(h, math.Float64bits(x))
		case bool:
			if x {
				h = fnvByte(h, 1)
			} else {
				h = fnvByte(h, 0)
			}
		default:
			h = fnvString(h, fmt.Sprintf("%v", x))
		}
		h = fnvByte(h, 0)
	}
	return h
}

// GlobalGrouping routes every tuple to the lowest-indexed task.
type GlobalGrouping struct{}

// Name implements Grouping.
func (GlobalGrouping) Name() string { return "global" }

// Select implements Grouping.
//
//dsps:hotpath
func (GlobalGrouping) Select(*Tuple, int) int { return 0 }

// DynamicGrouping is the paper's contribution: it distributes tuples
// across downstream tasks according to an arbitrary split ratio that can
// be changed on the fly, so the controller can steer traffic away from
// misbehaving workers without restarting the topology.
//
// Tuples are assigned by smooth weighted round-robin rather than random
// sampling, so the observed distribution tracks the requested ratio
// exactly over any window of ~numTasks tuples — the property experiment E5
// validates.
type DynamicGrouping struct {
	mu       sync.Mutex
	ratios   []float64 // normalized; nil until first SetRatios or Select
	current  []float64 // smooth-WRR running credit
	updates  int
	onChange func(ratios []float64)
}

// Name implements Grouping.
func (g *DynamicGrouping) Name() string { return "dynamic" }

// SetRatios atomically replaces the split ratios. The slice must have one
// non-negative entry per downstream task with a positive sum; it is
// normalized internally. Task i receives fraction ratios[i]/sum of the
// stream; a zero entry bypasses that task entirely.
func (g *DynamicGrouping) SetRatios(ratios []float64) error {
	if len(ratios) == 0 {
		return fmt.Errorf("dsps: empty ratio vector")
	}
	var sum float64
	for i, r := range ratios {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return fmt.Errorf("dsps: ratio[%d]=%v is invalid", i, r)
		}
		sum += r
	}
	if sum <= 0 || math.IsInf(sum, 0) {
		// An overflowed (+Inf) sum would normalize every entry to 0 and
		// silently route the whole stream to task 0.
		return fmt.Errorf("dsps: ratios sum to %v, need finite > 0", sum)
	}
	norm := make([]float64, len(ratios))
	for i, r := range ratios {
		norm[i] = r / sum
	}
	g.mu.Lock()
	g.ratios = norm
	g.current = make([]float64, len(norm))
	g.updates++
	fn := g.onChange
	g.mu.Unlock()
	if fn != nil {
		cp := make([]float64, len(norm))
		copy(cp, norm)
		fn(cp)
	}
	return nil
}

// SetOnChange registers a callback invoked after every successful
// SetRatios with a copy of the new normalized ratios. The callback runs
// on the SetRatios caller's goroutine with the grouping's lock released,
// so it may itself inspect the grouping but must not call SetRatios
// re-entrantly without accepting recursion. Pass nil to unregister.
// Observability layers use it to log ratio changes without polling.
func (g *DynamicGrouping) SetOnChange(fn func(ratios []float64)) {
	g.mu.Lock()
	g.onChange = fn
	g.mu.Unlock()
}

// Ratios returns the current normalized split ratios (nil if unset).
func (g *DynamicGrouping) Ratios() []float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ratios == nil {
		return nil
	}
	out := make([]float64, len(g.ratios))
	copy(out, g.ratios)
	return out
}

// Updates returns how many times SetRatios has been applied.
func (g *DynamicGrouping) Updates() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.updates
}

// Select implements Grouping via smooth weighted round-robin: each task
// accumulates credit equal to its ratio per tuple; the task with the most
// credit wins and pays back 1.
//
//dsps:hotpath
func (g *DynamicGrouping) Select(_ *Tuple, numTasks int) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.ratios) != numTasks {
		// Unset or re-parallelized: fall back to a uniform split.
		uniform := make([]float64, numTasks) //dspslint:ignore allocfree re-parallelization fallback; runs once per scale event, not per tuple
		for i := range uniform {
			uniform[i] = 1 / float64(numTasks)
		}
		g.ratios = uniform
		g.current = make([]float64, numTasks) //dspslint:ignore allocfree re-parallelization fallback; runs once per scale event, not per tuple
	}
	best := -1
	for i := range g.current {
		g.current[i] += g.ratios[i]
		if g.ratios[i] <= 0 {
			continue
		}
		if best < 0 || g.current[i] > g.current[best] {
			best = i
		}
	}
	if best < 0 {
		best = 0
	}
	g.current[best]--
	return best
}
