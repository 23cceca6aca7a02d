package contquery

import (
	"testing"
	"time"

	"predstream/internal/dsps"
	"predstream/internal/workload"
)

func q(id string, op AggOp) Query {
	return Query{ID: id, Op: op, Window: 2 * time.Second, Slide: time.Second}
}

func TestRegistryBasics(t *testing.T) {
	r, err := NewRegistry(q("a", Count), q("b", Sum))
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	v0 := r.Version()
	if err := r.Add(q("c", Avg)); err != nil {
		t.Fatal(err)
	}
	if r.Version() == v0 {
		t.Fatal("version did not change on Add")
	}
	list := r.List()
	if len(list) != 3 || list[0].ID != "a" || list[2].ID != "c" {
		t.Fatalf("List = %v", list)
	}
	if !r.Remove("b") {
		t.Fatal("Remove existing returned false")
	}
	if r.Remove("b") {
		t.Fatal("Remove missing returned true")
	}
	if r.Len() != 2 {
		t.Fatalf("Len after remove = %d", r.Len())
	}
	if err := r.Add(Query{ID: "", Op: Count, Window: time.Second, Slide: time.Second}); err == nil {
		t.Fatal("invalid query accepted")
	}
	if _, err := NewRegistry(Query{}); err == nil {
		t.Fatal("NewRegistry with invalid query accepted")
	}
	if r.String() == "" {
		t.Fatal("empty String")
	}
}

func TestQueryBoltPicksUpRegistryChanges(t *testing.T) {
	reg, err := NewRegistry(q("count", Count))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Registry: reg}.withDefaults()
	var rows []dsps.Values
	collector := &fakeCollector{onEmit: func(v dsps.Values) { rows = append(rows, v) }}
	now := time.Unix(0, 0)
	b := &QueryBolt{cfg: cfg, now: func() time.Time { return now }}
	b.Prepare(dsps.TopologyContext{}, collector)

	rec := func(cat string, val float64) *dsps.Tuple {
		return dsps.NewTestTuple([]string{"category", "user", "value", "ts"}, cat, 1, val, int64(0))
	}
	b.Execute(rec("sports", 10))
	// Add a second query at runtime; it starts aggregating from now on.
	if err := reg.Add(q("sum", Sum)); err != nil {
		t.Fatal(err)
	}
	b.Execute(rec("sports", 20))
	now = now.Add(1100 * time.Millisecond)
	b.Execute(dsps.NewTickTuple())
	got := map[string]float64{}
	for _, v := range rows {
		got[v[0].(string)+"/"+v[1].(string)] = v[2].(float64)
	}
	if got["count/sports"] != 2 {
		t.Fatalf("count = %v", got)
	}
	// The sum query only saw the second record.
	if got["sum/sports"] != 20 {
		t.Fatalf("sum = %v", got)
	}

	// Removing the count query stops its emissions but keeps sum's state.
	reg.Remove("count")
	rows = nil
	b.Execute(rec("sports", 5))
	now = now.Add(1100 * time.Millisecond)
	b.Execute(dsps.NewTickTuple())
	got = map[string]float64{}
	for _, v := range rows {
		got[v[0].(string)+"/"+v[1].(string)] = v[2].(float64)
	}
	if _, ok := got["count/sports"]; ok {
		t.Fatalf("removed query still emitting: %v", got)
	}
	// Window 2s/slide 1s = 2 slots: 20 from the earlier slot + 5 new.
	if got["sum/sports"] != 25 {
		t.Fatalf("sum after removal = %v", got)
	}
}

func TestQueryBoltRedefinitionResetsState(t *testing.T) {
	reg, err := NewRegistry(q("x", Sum))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Registry: reg}.withDefaults()
	var rows []dsps.Values
	collector := &fakeCollector{onEmit: func(v dsps.Values) { rows = append(rows, v) }}
	now := time.Unix(0, 0)
	b := &QueryBolt{cfg: cfg, now: func() time.Time { return now }}
	b.Prepare(dsps.TopologyContext{}, collector)
	rec := func(val float64) *dsps.Tuple {
		return dsps.NewTestTuple([]string{"category", "user", "value", "ts"}, "c", 1, val, int64(0))
	}
	b.Execute(rec(10))
	// Redefine x with a different operator: accumulated sums must reset.
	if err := reg.Add(q("x", Max)); err != nil {
		t.Fatal(err)
	}
	b.Execute(rec(3))
	now = now.Add(1100 * time.Millisecond)
	b.Execute(dsps.NewTickTuple())
	if len(rows) != 1 || rows[0][2].(float64) != 3 {
		t.Fatalf("redefined query rows = %v", rows)
	}
}

func TestEndToEndRuntimeQueryAddition(t *testing.T) {
	reg, err := NewRegistry(Query{ID: "base", Op: Count, Window: 400 * time.Millisecond, Slide: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	topo, sink, _, err := Build(Config{
		Registry:  reg,
		Shape:     workload.ConstantRate{TPS: 3000},
		QueryCost: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := dsps.NewCluster(dsps.ClusterConfig{Nodes: 2, Seed: 8})
	if err := c.Submit(topo, dsps.SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	waitRows := func(queryID string) bool {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			for _, r := range sink.Rows() {
				if r.Query == queryID {
					return true
				}
			}
			time.Sleep(25 * time.Millisecond)
		}
		return false
	}
	if !waitRows("base") {
		t.Fatal("base query produced no rows")
	}
	if err := reg.Add(Query{ID: "late", MinValue: 50, Op: Avg, Window: 400 * time.Millisecond, Slide: 100 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if !waitRows("late") {
		t.Fatal("runtime-added query produced no rows")
	}
}

func TestBuildWithEmptyRegistry(t *testing.T) {
	reg := &Registry{queries: map[string]Query{}}
	if _, _, _, err := Build(Config{Registry: reg}); err == nil {
		t.Fatal("empty registry accepted")
	}
}

// Remove deletes a standing query by id, reporting whether it existed.
func (r *Registry) Remove(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.queries[id]; !ok {
		return false
	}
	delete(r.queries, id)
	r.version++
	return true
}
