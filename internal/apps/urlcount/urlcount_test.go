package urlcount

import (
	"testing"
	"time"

	"predstream/internal/dsps"
	"predstream/internal/workload"
)

func TestSlidingCounterBasics(t *testing.T) {
	c := NewSlidingCounter(3)
	c.Add("a")
	c.Add("a")
	c.Add("b")
	totals := c.Totals()
	if totals["a"] != 2 || totals["b"] != 1 {
		t.Fatalf("totals = %v", totals)
	}
}

func TestSlidingCounterExpiry(t *testing.T) {
	c := NewSlidingCounter(2)
	c.Add("a") // slot 0
	c.Advance()
	c.Add("a") // slot 1
	if got := c.Totals()["a"]; got != 2 {
		t.Fatalf("mid-window total = %d", got)
	}
	c.Advance() // slot 0 cleared: first Add expires
	if got := c.Totals()["a"]; got != 1 {
		t.Fatalf("after expiry total = %d", got)
	}
	c.Advance()
	if got := c.Totals()["a"]; got != 0 {
		t.Fatalf("fully expired total = %d", got)
	}
}

func TestSlidingCounterPanicsOnBadSlots(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 0 slots")
		}
	}()
	NewSlidingCounter(0)
}

func TestHostOf(t *testing.T) {
	cases := map[string]string{
		"http://site-0001.example.com/page": "site-0001.example.com",
		"https://a.b/path/deep":             "a.b",
		"no-scheme.example.com/x":           "no-scheme.example.com",
		"http://bare-host.example.com":      "bare-host.example.com",
		"":                                  "",
	}
	for url, want := range cases {
		if got := HostOf(url); got != want {
			t.Fatalf("HostOf(%q) = %q want %q", url, got, want)
		}
	}
}

func TestCountBoltSlidesOnTicks(t *testing.T) {
	cfg := Config{Window: 4 * time.Second, Slide: time.Second}.withDefaults()
	var emitted []dsps.Values
	collector := &fakeCollector{onEmit: func(v dsps.Values) { emitted = append(emitted, v) }}
	b := &CountBolt{cfg: cfg}
	b.Prepare(dsps.TopologyContext{}, collector)
	hostTuple := func(h string) *dsps.Tuple {
		return makeTuple([]string{"host"}, h)
	}
	b.Execute(hostTuple("x.com"))
	b.Execute(hostTuple("x.com"))
	if len(emitted) != 0 {
		t.Fatal("emitted before any tick")
	}
	b.Execute(dsps.NewTickTuple())
	if len(emitted) == 0 {
		t.Fatal("no emission on tick")
	}
	found := false
	for _, v := range emitted {
		if v[0] == "x.com" && v[1] == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("x.com count missing from %v", emitted)
	}
	// Window = 4 slots: after 4 more ticks with no data the counts expire
	// and ticks emit nothing.
	emitted = nil
	for i := 0; i < 4; i++ {
		b.Execute(dsps.NewTickTuple())
	}
	emitted = nil
	b.Execute(dsps.NewTickTuple())
	if len(emitted) != 0 {
		t.Fatalf("expired window still emitted %v", emitted)
	}
}

func TestParseBoltEmitsHostAndFailsBadTuple(t *testing.T) {
	var emitted []dsps.Values
	failed := false
	collector := &fakeCollector{
		onEmit: func(v dsps.Values) { emitted = append(emitted, v) },
		onFail: func() { failed = true },
	}
	b := &ParseBolt{}
	b.Prepare(dsps.TopologyContext{}, collector)
	b.Execute(makeTuple([]string{"url"}, "http://h.example.com/p"))
	if len(emitted) != 1 || emitted[0][0] != "h.example.com" {
		t.Fatalf("emitted = %v", emitted)
	}
	b.Execute(makeTuple([]string{"other"}, "zzz"))
	if !failed {
		t.Fatal("bad tuple not failed")
	}
}

func TestReportTop(t *testing.T) {
	r := &Report{}
	r.Prepare(dsps.TopologyContext{}, nil)
	feed := func(h string, c int) {
		r.Execute(makeTuple([]string{"host", "count"}, h, c))
	}
	feed("a.com", 5)
	feed("b.com", 9)
	feed("c.com", 9)
	feed("a.com", 7) // update
	top := r.Top(2)
	if len(top) != 2 || top[0].Host != "b.com" || top[1].Host != "c.com" {
		t.Fatalf("top = %v", top)
	}
	if len(r.Top(10)) != 3 {
		t.Fatal("Top(10) should return all")
	}
}

func TestBuildTopologyShape(t *testing.T) {
	topo, report, dg, err := Build(Config{Dynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	if report == nil || dg == nil {
		t.Fatal("missing report or grouping handle")
	}
	comps := topo.Components()
	if len(comps) != 4 {
		t.Fatalf("components = %v", comps)
	}
	// Static variant has no grouping handle.
	_, _, dg2, err := Build(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if dg2 != nil {
		t.Fatal("static build returned a dynamic grouping")
	}
}

func TestEndToEndOnEngine(t *testing.T) {
	topo, report, _, err := Build(Config{
		URLs:       50,
		Shape:      workload.ConstantRate{TPS: 3000},
		Window:     400 * time.Millisecond,
		Slide:      100 * time.Millisecond,
		ParseCost:  10 * time.Microsecond,
		CountCost:  5 * time.Microsecond,
		ParseTasks: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := dsps.NewCluster(dsps.ClusterConfig{Nodes: 2, Seed: 3})
	if err := c.Submit(topo, dsps.SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	deadline := time.Now().Add(5 * time.Second)
	for len(report.Top(1)) == 0 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
	}
	top := report.Top(5)
	if len(top) == 0 {
		t.Fatal("no counts reported")
	}
	// Zipf skew: the top host strictly dominates the 5th.
	if len(top) >= 5 && top[0].Count < top[4].Count {
		t.Fatalf("top ordering broken: %v", top)
	}
	snap := c.Snapshot()
	if snap.TotalAcked() == 0 {
		t.Fatal("nothing acked")
	}
}

// fakeCollector implements dsps.OutputCollector for unit tests.
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

// makeTuple builds a tuple the way the engine would, via an engine
// round-trip: construct with exported fields only.
func makeTuple(fields []string, values ...any) *dsps.Tuple {
	return dsps.NewTestTuple(fields, values...)
}
