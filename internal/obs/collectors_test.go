package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"predstream/internal/chaos"
	"predstream/internal/core"
	"predstream/internal/dsps"
	"predstream/internal/telemetry"
)

// famMap indexes gathered families by name.
func famMap(fams []Family) map[string]Family {
	out := make(map[string]Family, len(fams))
	for _, f := range fams {
		out[f.Name] = f
	}
	return out
}

func sumValues(f Family) float64 {
	var s float64
	for _, sm := range f.Samples {
		s += sm.Value
	}
	return s
}

// buildObsCluster runs a small traced topology with a dynamic edge to
// completion and returns the cluster plus its grouping handle.
func buildObsCluster(t *testing.T) (*dsps.Cluster, *dsps.DynamicGrouping) {
	t.Helper()
	var collector dsps.SpoutCollector
	next := 0
	spout := &dsps.SpoutFunc{
		OpenFn: func(_ dsps.TopologyContext, c dsps.SpoutCollector) { collector = c },
		NextFn: func() bool {
			if next >= 100 {
				return false
			}
			collector.Emit(dsps.Values{next}, next)
			next++
			return true
		},
	}
	b := dsps.NewTopologyBuilder("obs-coll")
	b.SetSpout("src", func() dsps.Spout { return spout }, 1, "n")
	dg := b.SetBolt("work", func() dsps.Bolt {
		return &dsps.BoltFunc{ExecuteFn: func(*dsps.Tuple, dsps.OutputCollector) {}}
	}, 2).DynamicGrouping("src")
	if err := dg.SetRatios([]float64{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := dsps.NewCluster(dsps.ClusterConfig{
		Nodes: 2, QueueSize: 256, AckTimeout: 5 * time.Second,
		Delayer: dsps.NopDelayer{}, Seed: 7,
		TraceSampleRate: 1, TraceBufferSize: 1024,
	})
	if err := c.Submit(topo, dsps.SubmitConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if !c.Drain(5 * time.Second) {
		c.Shutdown()
		t.Fatal("did not drain")
	}
	return c, dg
}

func TestClusterCollector(t *testing.T) {
	c, _ := buildObsCluster(t)
	defer c.Shutdown()
	fams := famMap(NewClusterCollector(c).Collect())

	if got := sumValues(fams["predstream_task_acked_total"]); got != 100 {
		t.Fatalf("acked sum = %v, want 100", got)
	}
	// src executed 100 + work tasks executed 100 between them.
	if got := sumValues(fams["predstream_task_executed_total"]); got != 200 {
		t.Fatalf("executed sum = %v, want 200", got)
	}
	if got := sumValues(fams["predstream_task_batches_total"]); got <= 0 {
		t.Fatalf("batches sum = %v, want > 0", got)
	}
	if got := sumValues(fams["predstream_acker_in_flight"]); got != 0 {
		t.Fatalf("drained in-flight = %v", got)
	}
	if len(fams["predstream_acker_in_flight"].Samples) != 1 {
		t.Fatalf("acker in-flight samples = %d, want one per topology", len(fams["predstream_acker_in_flight"].Samples))
	}
	// Trace gauges are present because the cluster traces, and the ring
	// holds 100 emits + 100 execs.
	if got := sumValues(fams["predstream_trace_buffered_spans"]); got != 200 {
		t.Fatalf("buffered spans = %v, want 200", got)
	}

	// Exec histogram: every bolt execution observed, counts match.
	hist := fams["predstream_task_exec_latency_seconds"]
	if hist.Type != TypeHistogram {
		t.Fatalf("exec hist type = %v", hist.Type)
	}
	var total uint64
	for _, s := range hist.Samples {
		if s.Hist == nil {
			t.Fatal("histogram sample without data")
		}
		total += s.Hist.Total()
	}
	if total != 100 {
		t.Fatalf("exec hist total = %d, want 100", total)
	}

	// The whole page must encode cleanly.
	reg := NewRegistry()
	reg.Register(NewClusterCollector(c))
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `predstream_task_executed_total{topology="obs-coll",component="src",task="0",worker="worker-0"} 100`) {
		t.Fatalf("rendered page missing spout row:\n%s", buf.String())
	}
}

func TestControllerCollector(t *testing.T) {
	c, dg := buildObsCluster(t)
	defer c.Shutdown()
	sink := NewMemorySink(16)
	ctrl, err := core.NewController(c,
		[]core.ControlTarget{{Component: "work", Grouping: dg}},
		core.Config{Policy: core.PolicyBypass, Events: NewLogger(sink, LevelDebug)})
	if err != nil {
		t.Fatal(err)
	}
	coll := NewControllerCollector(ctrl)
	fams := famMap(coll.Collect())
	if got := sumValues(fams["predstream_controller_steps_total"]); got != 0 {
		t.Fatalf("steps before stepping = %v", got)
	}
	if _, err := ctrl.Step(); err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Step(); err != nil {
		t.Fatal(err)
	}
	fams = famMap(coll.Collect())
	if got := sumValues(fams["predstream_controller_steps_total"]); got != 2 {
		t.Fatalf("steps = %v, want 2", got)
	}
	if len(fams["predstream_controller_observed"].Samples) == 0 {
		t.Fatal("no observed samples after a step")
	}
	ratios := fams["predstream_controller_ratio"]
	if len(ratios.Samples) != 2 {
		t.Fatalf("ratio samples = %+v", ratios.Samples)
	}
	if got := sumValues(ratios); got < 0.99 || got > 1.01 {
		t.Fatalf("ratios sum to %v, want ~1", got)
	}
	// The step emitted a "control plan applied" event through the sink.
	found := false
	for _, r := range sink.Records() {
		if r.Msg == "control plan applied" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no plan event; records = %+v", sink.Records())
	}
}

// tickEngine is a core.Engine with no tasks whose snapshots are stamped one
// second apart, so every controller step is cheap and identifiable by At.
type tickEngine struct{ n int }

func (e *tickEngine) Snapshot() *dsps.Snapshot {
	e.n++
	return &dsps.Snapshot{At: time.Unix(int64(e.n), 0)}
}
func (*tickEngine) QueueSize() int                                     { return 0 }
func (*tickEngine) ScaleUp(string, string, int) error                  { return nil }
func (*tickEngine) ScaleDown(string, string, int, time.Duration) error { return nil }

type nopActuator struct{}

func (nopActuator) SetRatios([]float64) error { return nil }

// TestControllerHistoryBoundedStepsKeepCounting pins that a long-running
// control loop retains only its most recent 4096 reports, newest last, while
// predstream_controller_steps_total goes on counting every step.
func TestControllerHistoryBoundedStepsKeepCounting(t *testing.T) {
	const steps, kept = 5000, 4096
	ctrl, err := core.NewController(&tickEngine{},
		[]core.ControlTarget{{Component: "work", Grouping: nopActuator{}}}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		if _, err := ctrl.Step(); err != nil {
			t.Fatal(err)
		}
	}
	hist := ctrl.History()
	if len(hist) != kept {
		t.Fatalf("history holds %d reports, want %d", len(hist), kept)
	}
	for i, r := range hist {
		if want := time.Unix(int64(steps-kept+1+i), 0); !r.At.Equal(want) {
			t.Fatalf("history[%d].At = %v, want %v (oldest first, newest last)", i, r.At, want)
		}
	}
	if last, n := ctrl.Last(); n != steps || !last.At.Equal(hist[kept-1].At) {
		t.Fatalf("Last() = (At %v, %d), want (At %v, %d)", last.At, n, hist[kept-1].At, steps)
	}
	fams := famMap(NewControllerCollector(ctrl).Collect())
	if got := sumValues(fams["predstream_controller_steps_total"]); got != steps {
		t.Fatalf("predstream_controller_steps_total = %v, want %d", got, steps)
	}
}

func TestChaosCollector(t *testing.T) {
	m := &chaos.Metrics{}
	m.Runs.Add(1)
	m.EventsFired.Add(5)
	m.EventsSkipped.Add(2)
	m.Checks.Add(9)
	m.Violations.Store(3)
	fams := famMap(NewChaosCollector(m).Collect())
	for name, want := range map[string]float64{
		"predstream_chaos_runs_total":           1,
		"predstream_chaos_events_fired_total":   5,
		"predstream_chaos_events_skipped_total": 2,
		"predstream_chaos_checks_total":         9,
		"predstream_chaos_violations":           3,
	} {
		if got := sumValues(fams[name]); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestSamplerCollector(t *testing.T) {
	c, _ := buildObsCluster(t)
	defer c.Shutdown()
	s := telemetry.NewSamplerFiltered(0, "work")
	s.Sample(c.Snapshot())
	coll := NewSamplerCollector(s)
	// One snapshot = no complete window yet.
	fams := famMap(coll.Collect())
	if len(fams["predstream_window_exec_rate"].Samples) != 0 {
		t.Fatal("window samples before a second snapshot")
	}
	time.Sleep(5 * time.Millisecond)
	s.Sample(c.Snapshot())
	fams = famMap(coll.Collect())
	if len(fams["predstream_window_exec_rate"].Samples) == 0 {
		t.Fatal("no window samples after two snapshots")
	}
}

func TestRuntimeCollector(t *testing.T) {
	fams := famMap(NewRuntimeCollector().Collect())
	if sumValues(fams["go_goroutines"]) < 1 {
		t.Fatal("goroutines < 1")
	}
	if sumValues(fams["go_memstats_heap_alloc_bytes"]) <= 0 {
		t.Fatal("heap alloc <= 0")
	}
}

// TestClusterCollectorScaleSeries drives a live scale-up and scale-down and
// verifies the component aggregates absorb the churn: retired executors
// vanish from per-task series but their work stays counted per component,
// and the scale counters surface the event history.
func TestClusterCollectorScaleSeries(t *testing.T) {
	c, _ := buildObsCluster(t)
	defer c.Shutdown()
	if err := c.ScaleUp("obs-coll", "work", 2); err != nil {
		t.Fatal(err)
	}
	if err := c.ScaleDown("obs-coll", "work", 3, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	fams := famMap(NewClusterCollector(c).Collect())

	// One live work executor remains; the per-task series must only cover
	// live tasks (src + work survivor).
	if got := len(fams["predstream_task_executed_total"].Samples); got != 2 {
		t.Fatalf("per-task executed series = %d, want 2 (retired tasks must drop out)", got)
	}
	// The component aggregate still counts every executed tuple, including
	// the retired executors' share.
	var workExecuted float64
	for _, s := range fams["predstream_component_executed_total"].Samples {
		for _, l := range s.Labels {
			if l.Name == "component" && l.Value == "work" {
				workExecuted = s.Value
			}
		}
	}
	if workExecuted != 100 {
		t.Fatalf("component executed = %v, want 100 across live+retired executors", workExecuted)
	}
	if got := sumValues(fams["predstream_component_parallelism"]); got != 2 { // src 1 + work 1
		t.Fatalf("parallelism sum = %v, want 2", got)
	}
	if got := sumValues(fams["predstream_component_retired_executors_total"]); got != 3 {
		t.Fatalf("retired executors = %v, want 3", got)
	}
	if got := sumValues(fams["predstream_scale_ups_total"]); got != 2 {
		t.Fatalf("scale ups = %v, want 2", got)
	}
	if got := sumValues(fams["predstream_scale_downs_total"]); got != 3 {
		t.Fatalf("scale downs = %v, want 3", got)
	}
	if got := sumValues(fams["predstream_scale_route_epoch"]); got <= 0 {
		t.Fatalf("route epoch = %v, want > 0", got)
	}
	if got := sumValues(fams["predstream_scale_retired_tasks"]); got != 3 {
		t.Fatalf("retired tasks gauge = %v, want 3", got)
	}

	// The page still renders cleanly with the new families.
	reg := NewRegistry()
	reg.Register(NewClusterCollector(c))
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `predstream_component_parallelism{topology="obs-coll",component="work"} 1`) {
		t.Fatalf("rendered page missing component parallelism row:\n%s", buf.String())
	}
}
