package contquery

import (
	"math"
	"testing"
	"time"

	"predstream/internal/dsps"
	"predstream/internal/workload"
)

func TestAggOpStrings(t *testing.T) {
	if Count.String() != "count" || Sum.String() != "sum" || Avg.String() != "avg" || Max.String() != "max" {
		t.Fatal("AggOp strings wrong")
	}
	if AggOp(99).String() == "" {
		t.Fatal("unknown op string empty")
	}
}

func TestQueryValidation(t *testing.T) {
	good := Query{ID: "q", Op: Count, Window: 2 * time.Second, Slide: time.Second}
	if err := good.validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []Query{
		{ID: "", Op: Count, Window: time.Second, Slide: time.Second},
		{ID: "q", Window: 0, Slide: time.Second},
		{ID: "q", Window: time.Second, Slide: 0},
		{ID: "q", Window: time.Second, Slide: 2 * time.Second},
	} {
		if err := bad.validate(); err == nil {
			t.Fatalf("query %+v accepted", bad)
		}
	}
}

func TestQueryMatches(t *testing.T) {
	q := Query{Category: "sports", MinValue: 10}
	if !q.matches("sports", 10) {
		t.Fatal("boundary value should match")
	}
	if q.matches("sports", 9.9) {
		t.Fatal("below-threshold matched")
	}
	if q.matches("news", 50) {
		t.Fatal("other category matched")
	}
	all := Query{MinValue: 0}
	if !all.matches("anything", 0) {
		t.Fatal("catch-all failed")
	}
}

func TestWindowAggOperators(t *testing.T) {
	mk := func(op AggOp) *windowAgg {
		return newWindowAgg(Query{ID: "q", Op: op, Window: 2 * time.Second, Slide: time.Second})
	}
	// count
	w := mk(Count)
	w.add("k", 5)
	w.add("k", 7)
	if got := w.advance()["k"]; got != 2 {
		t.Fatalf("count = %v", got)
	}
	// sum
	w = mk(Sum)
	w.add("k", 5)
	w.add("k", 7)
	if got := w.advance()["k"]; got != 12 {
		t.Fatalf("sum = %v", got)
	}
	// avg
	w = mk(Avg)
	w.add("k", 5)
	w.add("k", 7)
	if got := w.advance()["k"]; got != 6 {
		t.Fatalf("avg = %v", got)
	}
	// max (including negative values)
	w = mk(Max)
	w.add("k", -5)
	w.add("k", -7)
	if got := w.advance()["k"]; got != -5 {
		t.Fatalf("max = %v", got)
	}
}

func TestWindowAggSlidingExpiry(t *testing.T) {
	w := newWindowAgg(Query{ID: "q", Op: Sum, Window: 2 * time.Second, Slide: time.Second})
	w.add("k", 10)
	first := w.advance()
	if first["k"] != 10 {
		t.Fatalf("first window = %v", first)
	}
	w.add("k", 1)
	second := w.advance()
	if second["k"] != 11 {
		t.Fatalf("second window = %v", second)
	}
	third := w.advance() // the 10 from slot 0 has expired
	if third["k"] != 1 {
		t.Fatalf("third window = %v", third)
	}
}

func TestQueryBoltEvaluatesRegistry(t *testing.T) {
	reg, err := NewRegistry(
		Query{ID: "cnt", Op: Count, Window: 2 * time.Second, Slide: time.Second},
		Query{ID: "hi-avg", MinValue: 50, Op: Avg, Window: 2 * time.Second, Slide: time.Second},
	)
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
	b.Execute(rec("sports", 80))
	b.Execute(rec("sports", 20))
	b.Execute(rec("news", 60))
	b.Execute(rec("tech", 10))
	if len(rows) != 0 {
		t.Fatal("emitted before slide")
	}
	// A tick before the slide interval elapses must not emit.
	b.Execute(dsps.NewTickTuple())
	if len(rows) != 0 {
		t.Fatal("early tick emitted")
	}
	now = now.Add(1100 * time.Millisecond)
	b.Execute(dsps.NewTickTuple())
	got := map[string]map[string]float64{}
	for _, v := range rows {
		q, k, val := v[0].(string), v[1].(string), v[2].(float64)
		if got[q] == nil {
			got[q] = map[string]float64{}
		}
		got[q][k] = val
	}
	if got["cnt"]["sports"] != 2 || got["cnt"]["news"] != 1 {
		t.Fatalf("cnt rows = %v", got["cnt"])
	}
	// high-value avg groups by actual category (catch-all query): sports
	// 80, news 60.
	if math.Abs(got["hi-avg"]["sports"]-80) > 1e-9 || math.Abs(got["hi-avg"]["news"]-60) > 1e-9 {
		t.Fatalf("hi-avg rows = %v", got["hi-avg"])
	}
}

func TestQueryBoltFailsMalformedTuple(t *testing.T) {
	cfg := Config{}.withDefaults()
	failed := false
	collector := &fakeCollector{onFail: func() { failed = true }}
	b := &QueryBolt{cfg: cfg}
	b.Prepare(dsps.TopologyContext{}, collector)
	b.Execute(dsps.NewTestTuple([]string{"bogus"}, 1))
	if !failed {
		t.Fatal("malformed record not failed")
	}
}

func TestSinkCollectsAndSummarizes(t *testing.T) {
	s := &Sink{}
	s.Prepare(dsps.TopologyContext{}, nil)
	row := func(q, k string, v float64) *dsps.Tuple {
		return dsps.NewTestTuple([]string{"query", "key", "value"}, q, k, v)
	}
	s.Execute(row("q1", "sports", 5))
	s.Execute(row("q1", "sports", 9))
	s.Execute(row("q2", "news", 3))
	if len(s.Rows()) != 3 {
		t.Fatalf("rows = %d", len(s.Rows()))
	}
	latest := s.Latest()
	if latest["q1"]["sports"] != 9 || latest["q2"]["news"] != 3 {
		t.Fatalf("latest = %v", latest)
	}
}

// Queries reach Build only through a Registry, which validates them.
func TestBuildValidatesQueries(t *testing.T) {
	if _, err := NewRegistry(Query{ID: "", Window: time.Second, Slide: time.Second}); err == nil {
		t.Fatal("invalid query accepted")
	}
}

func TestBuildShape(t *testing.T) {
	topo, sink, dg, err := Build(Config{Dynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	if sink == nil || dg == nil {
		t.Fatal("missing sink or grouping")
	}
	if got := len(topo.Components()); got != 3 {
		t.Fatalf("components = %d", got)
	}
}

func TestEndToEndOnEngine(t *testing.T) {
	reg, err := NewRegistry(Query{ID: "cnt", Op: Count, Window: 400 * time.Millisecond, Slide: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	topo, sink, _, err := Build(Config{
		Registry:  reg,
		Shape:     workload.ConstantRate{TPS: 3000},
		QueryCost: 10 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := dsps.NewCluster(dsps.ClusterConfig{Nodes: 2, Seed: 5})
	if err := c.Submit(topo, dsps.SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for len(sink.Rows()) == 0 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	rows := sink.Rows()
	if len(rows) == 0 {
		t.Fatal("no query results")
	}
	for _, r := range rows {
		if r.Query != "cnt" || r.Value <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
}

type fakeCollector struct {
	onEmit func(dsps.Values)
	onFail func()
}

func (f *fakeCollector) Emit(v dsps.Values) {
	if f.onEmit != nil {
		f.onEmit(v)
	}
}

func (f *fakeCollector) Fail() {
	if f.onFail != nil {
		f.onFail()
	}
}
