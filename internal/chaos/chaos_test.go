package chaos

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"predstream/internal/dsps"
)

// soakTopology builds src(2) -> mid(2) -> sink(2): an anchored unbounded
// spout, a forwarding stage, and a sink behind a dynamic grouping.
// Factories build fresh instances so the topology survives rebalances.
func soakTopology(t *testing.T, name string) (*dsps.Topology, *dsps.DynamicGrouping) {
	t.Helper()
	b := dsps.NewTopologyBuilder(name)
	b.SetSpout("src", func() dsps.Spout {
		var col dsps.SpoutCollector
		n := 0
		return &dsps.SpoutFunc{
			OpenFn: func(_ dsps.TopologyContext, c dsps.SpoutCollector) { col = c },
			NextFn: func() bool {
				col.Emit(dsps.Values{n}, n)
				n++
				return true
			},
		}
	}, 2, "n")
	b.SetBolt("mid", func() dsps.Bolt {
		return &dsps.BoltFunc{ExecuteFn: func(tp *dsps.Tuple, c dsps.OutputCollector) {
			c.Emit(dsps.Values{tp.Values[0]})
		}}
	}, 2, "n").ShuffleGrouping("src")
	dg := b.SetBolt("sink", func() dsps.Bolt { return &dsps.BoltFunc{} }, 2).
		DynamicGrouping("mid")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo, dg
}

func soakCluster() *dsps.Cluster {
	return dsps.NewCluster(dsps.ClusterConfig{
		Nodes:           2,
		QueueSize:       64,
		MaxSpoutPending: 128,
		AckTimeout:      300 * time.Millisecond,
		Delayer:         dsps.NopDelayer{},
		Seed:            1,
	})
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := GenConfig{Events: 20, Horizon: time.Second, Workers: 4, Stall: true, Rebalance: true, Checkpoint: true, Pause: true}
	a := Generate(99, cfg)
	b := Generate(99, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different scripts")
	}
	c := Generate(100, cfg)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("different seeds produced identical scripts")
	}
	if a.Seed != 99 {
		t.Fatalf("seed not recorded: %d", a.Seed)
	}
	last := time.Duration(-1)
	for _, ev := range a.Events {
		if ev.At < last {
			t.Fatalf("events not sorted: %v after %v", ev.At, last)
		}
		last = ev.At
		if ev.At >= 2*cfg.Horizon {
			t.Fatalf("event at %v beyond horizon %v", ev.At, cfg.Horizon)
		}
		if ev.Kind == KindInject {
			if f := ev.Fault; f.Slowdown < 0 || (f.Slowdown > 0 && f.Slowdown < 1) ||
				f.DropProb < 0 || f.DropProb > 1 || f.FailProb < 0 || f.FailProb > 1 {
				t.Fatalf("generated invalid fault %+v", f)
			}
		}
	}
	if a.Horizon() <= 0 {
		t.Fatal("horizon not positive")
	}
}

func TestScriptedRunHoldsInvariants(t *testing.T) {
	topo, _ := soakTopology(t, "scripted")
	c := soakCluster()
	if err := c.Submit(topo, dsps.SubmitConfig{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	script := Script{Seed: 11, Events: []Event{
		{At: ms(10), Kind: KindInject, WorkerIndex: 0, Fault: dsps.Fault{Slowdown: 4}},
		{At: ms(30), Kind: KindInject, WorkerIndex: 1, Fault: dsps.Fault{DropProb: 0.3}},
		{At: ms(60), Kind: KindInject, WorkerIndex: 2, Fault: dsps.Fault{FailProb: 0.3}},
		{At: ms(120), Kind: KindClear, WorkerIndex: 1},
		{At: ms(150), Kind: KindCheckpoint},
		{At: ms(180), Kind: KindInject, WorkerIndex: 0, Fault: dsps.Fault{Stall: true}},
		{At: ms(300), Kind: KindClear, WorkerIndex: 0},
	}}
	rep, err := Run(c, script, Options{SpoutComponents: topo.Spouts()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("invariants violated:\n%s", rep)
	}
	if rep.Fired != len(script.Events) || rep.Skipped != 0 {
		t.Fatalf("fired=%d skipped=%d, want all %d fired", rep.Fired, rep.Skipped, len(script.Events))
	}
	if !rep.Drained {
		t.Fatal("final drain failed")
	}
	if rep.Checks == 0 {
		t.Fatal("no invariant checks ran")
	}
	if rep.Err() != nil {
		t.Fatalf("Err on clean run: %v", rep.Err())
	}
}

func TestGeneratedRunHoldsInvariants(t *testing.T) {
	topo, _ := soakTopology(t, "generated")
	c := soakCluster()
	if err := c.Submit(topo, dsps.SubmitConfig{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	script := Generate(3, GenConfig{
		Events: 10, Horizon: 500 * time.Millisecond, Workers: 4,
		Stall: true, Rebalance: true, Checkpoint: true, Pause: true,
	})
	rep, err := Run(c, script, Options{SpoutComponents: topo.Spouts()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("invariants violated:\n%s", rep)
	}
}

func TestUnknownWorkerEventSkipped(t *testing.T) {
	topo, _ := soakTopology(t, "skipped")
	c := soakCluster()
	if err := c.Submit(topo, dsps.SubmitConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	script := Script{Seed: 1, Events: []Event{
		{At: 5 * time.Millisecond, Kind: KindInject, Worker: "no-such-worker", Fault: dsps.Fault{Slowdown: 2}},
		{At: 10 * time.Millisecond, Kind: KindKill, Topology: "not-running"},
	}}
	rep, err := Run(c, script, Options{SpoutComponents: topo.Spouts()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 2 || rep.Fired != 0 {
		t.Fatalf("fired=%d skipped=%d, want 0/2", rep.Fired, rep.Skipped)
	}
	if !rep.OK() {
		t.Fatalf("skipped events must not violate invariants:\n%s", rep)
	}
}

// TestScriptedKillFires shuts the live topology down mid-run: the kill
// is applied, and the quiescent checks still hold with the stream ended
// early.
func TestScriptedKillFires(t *testing.T) {
	topo, _ := soakTopology(t, "killed")
	c := soakCluster()
	if err := c.Submit(topo, dsps.SubmitConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	script := Script{Seed: 5, Events: []Event{
		{At: 20 * time.Millisecond, Kind: KindInject, WorkerIndex: 0, Fault: dsps.Fault{Slowdown: 2}},
		{At: 60 * time.Millisecond, Kind: KindKill, Topology: "killed"},
	}}
	rep, err := Run(c, script, Options{SpoutComponents: topo.Spouts()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fired != 2 || rep.Skipped != 0 {
		t.Fatalf("fired=%d skipped=%d, want 2/0", rep.Fired, rep.Skipped)
	}
	if !rep.OK() {
		t.Fatalf("invariants violated after a kill:\n%s", rep)
	}
}

// TestPlanBypassViolationReportsSeed drives the plan-bypass invariant to a
// deliberate failure: a dynamic edge with no controller attached keeps
// routing to a stalled worker, and the report must carry the reproducing
// seed.
func TestPlanBypassViolationReportsSeed(t *testing.T) {
	topo, dg := soakTopology(t, "bypassfail")
	c := soakCluster()
	if err := c.Submit(topo, dsps.SubmitConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := dg.SetRatios([]float64{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	script := Script{Seed: 99, Events: []Event{
		{At: 10 * time.Millisecond, Kind: KindInject, WorkerIndex: 0, Fault: dsps.Fault{Stall: true}},
		{At: 300 * time.Millisecond, Kind: KindClear, WorkerIndex: 1},
	}}
	rep, err := Run(c, script, Options{
		SpoutComponents: topo.Spouts(),
		Controlled: []ControlledEdge{{
			Component: "sink", Grouping: dg,
			DetectionLatency: 100 * time.Millisecond, MaxStalledShare: 0.01,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("expected a plan-bypass violation with no controller steering the edge")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Invariant == "plan-bypass" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no plan-bypass violation in:\n%s", rep)
	}
	if !strings.Contains(rep.String(), "seed=99") {
		t.Fatalf("report does not name the reproducing seed:\n%s", rep)
	}
	if rep.Err() == nil || !strings.Contains(rep.Err().Error(), "seed 99") {
		t.Fatalf("Err does not name the reproducing seed: %v", rep.Err())
	}
}

func TestCheckerMonotoneAndBounds(t *testing.T) {
	ck := newChecker(64, 32)
	ck.continuous(&dsps.Snapshot{Tasks: []dsps.TaskStats{
		{TaskID: 1, Component: "a", Executed: 10, Emitted: 10},
	}})
	ck.continuous(&dsps.Snapshot{Tasks: []dsps.TaskStats{
		{TaskID: 1, Component: "a", Executed: 5, Emitted: 10, QueueLen: 100},
	}})
	var mono, queue bool
	for _, v := range ck.violations {
		switch v.Invariant {
		case "monotone":
			mono = true
		case "queue-bound":
			queue = true
		}
	}
	if !mono || !queue {
		t.Fatalf("missing violations, got %v", ck.violations)
	}
}

func TestCheckerQuiescent(t *testing.T) {
	ck := newChecker(64, 32)
	snap := &dsps.Snapshot{Tasks: []dsps.TaskStats{
		{TaskID: 0, Component: "src", Emitted: 10, Acked: 7, Failed: 2},
		{TaskID: 1, Component: "sink", QueueLen: 3},
		{TaskID: 2, Component: "sink", Acked: 1},
	}}
	ck.quiescent(4, snap, map[string]bool{"src": true})
	want := map[string]bool{"acker-quiescent": false, "conservation": false, "queue-drained": false}
	conservations := 0
	for _, v := range ck.violations {
		if v.Invariant == "conservation" {
			conservations++
		}
		want[v.Invariant] = true
	}
	for inv, seen := range want {
		if !seen {
			t.Fatalf("missing %s violation in %v", inv, ck.violations)
		}
	}
	// Both the leaking spout and the bolt with spout counters must report.
	if conservations != 2 {
		t.Fatalf("conservation violations = %d, want 2", conservations)
	}
}

func TestCheckerViolationCap(t *testing.T) {
	ck := newChecker(0, 2)
	snap := &dsps.Snapshot{Tasks: []dsps.TaskStats{
		{TaskID: 1, QueueLen: 5}, {TaskID: 2, QueueLen: 5}, {TaskID: 3, QueueLen: 5},
	}}
	ck.continuous(snap)
	if len(ck.violations) != 2 || !ck.truncated {
		t.Fatalf("cap not enforced: %d violations, truncated=%v", len(ck.violations), ck.truncated)
	}
}

// TestScaleEventsHoldInvariants runs a generated timeline with scale
// events enabled against the soak topology: worker faults and live
// scale-up/scale-down interleave, and the conservation, monotonicity, and
// quiescence invariants must all survive the executor churn.
func TestScaleEventsHoldInvariants(t *testing.T) {
	topo, _ := soakTopology(t, "scaled")
	c := soakCluster()
	if err := c.Submit(topo, dsps.SubmitConfig{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	script := Generate(7, GenConfig{
		Events: 12, Horizon: 600 * time.Millisecond, Workers: 4,
		Stall: true, Checkpoint: true,
		Scale: true, ScaleComponents: []string{"mid"},
	})
	var ups, downs int
	for _, ev := range script.Events {
		switch ev.Kind {
		case KindScaleUp:
			ups++
		case KindScaleDown:
			downs++
		}
	}
	if ups == 0 || downs == 0 {
		t.Fatalf("scale-enabled schedule carries ups=%d downs=%d, want both > 0", ups, downs)
	}
	rep, err := Run(c, script, Options{SpoutComponents: topo.Spouts()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("invariants violated under scale churn:\n%s", rep)
	}
	if !rep.Drained {
		t.Fatal("final drain failed after scale churn")
	}
	snap := c.Snapshot()
	if len(snap.Scale) != 1 || snap.Scale[0].Ups == 0 {
		t.Fatalf("no scale-ups recorded: %+v", snap.Scale)
	}
}

// TestScaleFloorSkipped verifies a scale-down below parallelism 1 is
// rejected by the engine and counted as skipped, not a run failure.
func TestScaleFloorSkipped(t *testing.T) {
	topo, _ := soakTopology(t, "floor")
	c := soakCluster()
	if err := c.Submit(topo, dsps.SubmitConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	script := Script{Seed: 5, Events: []Event{
		{At: 10 * time.Millisecond, Kind: KindScaleDown, Component: "mid", Tasks: 2, DrainTimeout: 100 * time.Millisecond},
	}}
	rep, err := Run(c, script, Options{SpoutComponents: topo.Spouts()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 1 || rep.Fired != 0 {
		t.Fatalf("fired=%d skipped=%d, want 0/1", rep.Fired, rep.Skipped)
	}
	if !rep.OK() {
		t.Fatalf("floor rejection must not violate invariants:\n%s", rep)
	}
}

// Horizon returns the time of the last event (the scripted portion of the
// run; the runner appends a final drain-and-check phase after it).
func (s Script) Horizon() time.Duration {
	var max time.Duration
	for _, e := range s.Events {
		if e.At > max {
			max = e.At
		}
	}
	return max
}
