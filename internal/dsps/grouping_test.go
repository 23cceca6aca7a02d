package dsps

import (
	"math"
	"testing"
	"testing/quick"
)

func mkTuple(fields []string, values ...any) *Tuple {
	return &Tuple{Values: values, fields: fields}
}

func TestShuffleGroupingRoundRobin(t *testing.T) {
	g := &ShuffleGrouping{}
	counts := make([]int, 3)
	for i := 0; i < 300; i++ {
		counts[g.Select(nil, 3)]++
	}
	for i, c := range counts {
		if c != 100 {
			t.Fatalf("task %d got %d tuples, want 100", i, c)
		}
	}
}

func TestFieldsGroupingConsistentAndSpread(t *testing.T) {
	g := &FieldsGrouping{Fields: []string{"key"}}
	fields := []string{"key", "val"}
	a1 := g.Select(mkTuple(fields, "alpha", 1), 4)
	a2 := g.Select(mkTuple(fields, "alpha", 99), 4)
	if a1 != a2 {
		t.Fatal("same key routed to different tasks")
	}
	// Different keys should spread over tasks (statistically).
	seen := map[int]bool{}
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j"}
	for _, k := range keys {
		seen[g.Select(mkTuple(fields, k, 0), 4)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("10 keys landed on %d task(s)", len(seen))
	}
}

func TestFieldsGroupingMissingFieldIsDeterministic(t *testing.T) {
	g := &FieldsGrouping{Fields: []string{"nope"}}
	a := g.Select(mkTuple([]string{"key"}, "x"), 4)
	b := g.Select(mkTuple([]string{"key"}, "y"), 4)
	if a != b {
		t.Fatal("missing field should route deterministically")
	}
}

func TestGlobalGrouping(t *testing.T) {
	if got := (GlobalGrouping{}).Select(nil, 5); got != 0 {
		t.Fatalf("global = %d", got)
	}
}

func TestDynamicGroupingTracksRatioExactly(t *testing.T) {
	g := &DynamicGrouping{}
	if err := g.SetRatios([]float64{0.7, 0.3}); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 2)
	for i := 0; i < 1000; i++ {
		counts[g.Select(nil, 2)]++
	}
	if counts[0] != 700 || counts[1] != 300 {
		t.Fatalf("70/30 split gave %v", counts)
	}
}

func TestDynamicGroupingZeroRatioBypasses(t *testing.T) {
	g := &DynamicGrouping{}
	if err := g.SetRatios([]float64{1, 0, 1}); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 3)
	for i := 0; i < 100; i++ {
		counts[g.Select(nil, 3)]++
	}
	if counts[1] != 0 {
		t.Fatalf("bypassed task received %d tuples", counts[1])
	}
	if counts[0] != 50 || counts[2] != 50 {
		t.Fatalf("remaining split = %v", counts)
	}
}

func TestDynamicGroupingOnTheFlyUpdate(t *testing.T) {
	g := &DynamicGrouping{}
	if err := g.SetRatios([]float64{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		g.Select(nil, 2)
	}
	if err := g.SetRatios([]float64{0.9, 0.1}); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 2)
	for i := 0; i < 1000; i++ {
		counts[g.Select(nil, 2)]++
	}
	if counts[0] != 900 || counts[1] != 100 {
		t.Fatalf("post-update split = %v", counts)
	}
	if g.Updates() != 2 {
		t.Fatalf("Updates = %d", g.Updates())
	}
}

func TestDynamicGroupingDefaultsToUniform(t *testing.T) {
	g := &DynamicGrouping{}
	counts := make([]int, 4)
	for i := 0; i < 400; i++ {
		counts[g.Select(nil, 4)]++
	}
	for i, c := range counts {
		if c != 100 {
			t.Fatalf("uniform default: task %d got %d", i, c)
		}
	}
}

func TestDynamicGroupingRatioValidation(t *testing.T) {
	g := &DynamicGrouping{}
	for _, bad := range [][]float64{
		nil,
		{},
		{-1, 2},
		{0, 0},
		{math.NaN(), 1},
		{math.Inf(1), 1},
	} {
		if err := g.SetRatios(bad); err == nil {
			t.Fatalf("SetRatios(%v) accepted", bad)
		}
	}
}

func TestDynamicGroupingRatiosNormalized(t *testing.T) {
	g := &DynamicGrouping{}
	if err := g.SetRatios([]float64{2, 6}); err != nil {
		t.Fatal(err)
	}
	r := g.Ratios()
	if math.Abs(r[0]-0.25) > 1e-12 || math.Abs(r[1]-0.75) > 1e-12 {
		t.Fatalf("normalized = %v", r)
	}
	if (&DynamicGrouping{}).Ratios() != nil {
		t.Fatal("unset ratios should be nil")
	}
}

func TestPropertyDynamicGroupingLongRunShare(t *testing.T) {
	// For any valid ratio vector, the observed share over n·1000 tuples is
	// within 1/1000 of the requested share.
	f := func(seedA, seedB, seedC uint8) bool {
		ratios := []float64{float64(seedA%9) + 1, float64(seedB%9) + 1, float64(seedC%9) + 1}
		g := &DynamicGrouping{}
		if err := g.SetRatios(ratios); err != nil {
			return false
		}
		const rounds = 3000
		counts := make([]float64, 3)
		for i := 0; i < rounds; i++ {
			counts[g.Select(nil, 3)]++
		}
		var sum float64
		for _, r := range ratios {
			sum += r
		}
		for i := range ratios {
			want := ratios[i] / sum
			got := counts[i] / rounds
			if math.Abs(got-want) > 0.002 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTupleFieldAccessors(t *testing.T) {
	tpl := mkTuple([]string{"s", "n", "f"}, "hello", 7, 2.5)
	if v, err := tpl.String("s"); err != nil || v != "hello" {
		t.Fatalf("String = %v, %v", v, err)
	}
	if v, err := tpl.Int("n"); err != nil || v != 7 {
		t.Fatalf("Int = %v, %v", v, err)
	}
	if v, err := tpl.Float("f"); err != nil || v != 2.5 {
		t.Fatalf("Float = %v, %v", v, err)
	}
	if _, err := tpl.GetValue("missing"); err == nil {
		t.Fatal("missing field should error")
	}
	if _, err := tpl.String("n"); err == nil {
		t.Fatal("type mismatch should error")
	}
	if _, err := tpl.Int("s"); err == nil {
		t.Fatal("type mismatch should error")
	}
	if _, err := tpl.Float("s"); err == nil {
		t.Fatal("type mismatch should error")
	}
}
