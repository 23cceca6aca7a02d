package experiments

import (
	"context"
	"testing"
	"time"

	"predstream/internal/apps/urlcount"
	"predstream/internal/chaos"
	"predstream/internal/core"
	"predstream/internal/dsps"
	"predstream/internal/scenario"
)

// TestChaosSoakControlledBypass replays the E6/E7/E10 regime under the
// chaos harness: a worker hosting a parse task stalls mid-run while the
// reactive controller steers the urls→parse dynamic edge. The invariant
// checker requires the stalled worker's share to drop to ~0 within the
// detection latency (the paper's bypass guarantee) while the engine keeps
// conserving tuples.
func TestChaosSoakControlledBypass(t *testing.T) {
	topo, _, dg, err := urlcount.Build(urlcount.Config{
		Dynamic:   true,
		Seed:      5,
		Window:    time.Second,
		Slide:     200 * time.Millisecond,
		ParseCost: 50 * time.Microsecond,
		CountCost: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// QueueSize must dwarf MaxSpoutPending here: the count stage's hash
	// grouping still routes through the stalled worker, and if its queue
	// fills, backpressure wedges every parse executor — all four workers
	// then read as stalled and there is no healthy median to detect
	// against. With headroom for the in-flight cap plus the timed-out
	// zombies that accumulate during the stall, the stream keeps flowing
	// around the victim.
	c := dsps.NewCluster(dsps.ClusterConfig{
		Nodes:           2,
		QueueSize:       2048,
		MaxSpoutPending: 256,
		AckTimeout:      500 * time.Millisecond,
		Delayer:         dsps.NopDelayer{},
		Seed:            5,
	})
	if err := c.Submit(topo, dsps.SubmitConfig{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	ctrl, err := core.NewController(c, []core.ControlTarget{{Component: "parse", Grouping: dg}}, core.Config{
		Policy:        core.PolicyBypass,
		Basis:         core.BasisObserved,
		StallQueueMin: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ctrl.Run(ctx, 25*time.Millisecond)

	// Stall a worker that hosts a parse task but not the spout, so the
	// stream keeps flowing and the stall channel has traffic to flag.
	victims := scenario.Victims(c.Snapshot())
	if len(victims) == 0 {
		t.Fatal("no parse task placed off the spout worker")
	}
	victim := victims[0]

	script := chaos.Script{Seed: 5, Events: []chaos.Event{
		{At: 150 * time.Millisecond, Kind: chaos.KindInject, Worker: victim, Fault: dsps.Fault{Stall: true}},
		{At: 1900 * time.Millisecond, Kind: chaos.KindClear, Worker: victim},
	}}
	rep, err := chaos.Run(c, script, chaos.Options{
		SpoutComponents: topo.Spouts(),
		Controlled: []chaos.ControlledEdge{{
			Component:        "parse",
			Grouping:         dg,
			DetectionLatency: 1200 * time.Millisecond,
			MaxStalledShare:  0.02,
		}},
	})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("controlled chaos run violated invariants:\n%s", rep)
	}
	if rep.Fired != len(script.Events) {
		t.Fatalf("fired %d of %d events:\n%s", rep.Fired, len(script.Events), rep)
	}
	// Guard against a vacuous pass: the controller must actually have
	// steered the edge for the bypass invariant to have had teeth.
	if dg.Updates() == 0 {
		t.Fatal("controller never updated the dynamic grouping")
	}
	t.Logf("clean: %s", rep)
}
