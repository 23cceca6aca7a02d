package experiments

import (
	"context"
	"testing"
	"time"

	"predstream/internal/apps/urlcount"
	"predstream/internal/chaos"
	"predstream/internal/core"
	"predstream/internal/dsps"
)

// TestRunElasticShape runs a shortened E13 flash-crowd column and checks
// that the elastic system actually scaled while the static one stayed
// pinned. The headline comparison (elastic p99 beating static) is left to
// the full-size cmd/experiments run — at test durations the gap is real
// but too noisy to assert on.
func TestRunElasticShape(t *testing.T) {
	res, err := RunElastic(ElasticConfig{
		shapes:  []string{"flash-crowd"},
		Warmup:  500 * time.Millisecond,
		measure: 3 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 2 {
		t.Fatalf("cells = %d, want 2", len(res.Cells))
	}
	st, ok := res.Cell("static", "flash-crowd")
	if !ok {
		t.Fatal("missing static cell")
	}
	if st.ScaleUps != 0 || st.ScaleDowns != 0 || st.FinalParallelism != 2 {
		t.Fatalf("static cell scaled: %+v", st)
	}
	el, ok := res.Cell("elastic", "flash-crowd")
	if !ok {
		t.Fatal("missing elastic cell")
	}
	if el.ScaleUps == 0 {
		t.Fatalf("elastic cell never scaled up: %+v", el)
	}
	if el.ThroughputTPS <= 0 {
		t.Fatalf("elastic cell processed nothing: %+v", el)
	}
	rows := res.CSV()
	if len(rows) != 3 || len(rows[0]) != 9 {
		t.Fatalf("csv shape = %dx%d", len(rows), len(rows[0]))
	}
}

// TestChaosSoakElasticScale interleaves generated scale events with worker
// faults on the URL-count topology while an elastic controller is live —
// the full stack the -elastic dspsim flag exercises. Invariants must hold
// and the run must drain.
func TestChaosSoakElasticScale(t *testing.T) {
	topo, _, dg, err := urlcount.Build(urlcount.Config{
		Dynamic:   true,
		Seed:      11,
		Window:    time.Second,
		Slide:     200 * time.Millisecond,
		ParseCost: 50 * time.Microsecond,
		CountCost: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	c := dsps.NewCluster(dsps.ClusterConfig{
		Nodes:           2,
		QueueSize:       2048,
		MaxSpoutPending: 256,
		AckTimeout:      500 * time.Millisecond,
		Delayer:         dsps.NopDelayer{},
		Seed:            11,
	})
	if err := c.Submit(topo, dsps.SubmitConfig{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	ctrl, err := core.NewController(c, []core.ControlTarget{{Component: "parse", Grouping: dg}}, core.Config{
		Policy: core.PolicyUniform,
		Scale: &core.ScaleConfig{
			MaxParallelism: 6,
			UpOccupancy:    0.3,
			UpWindows:      2,
			Cooldown:       100 * time.Millisecond,
			DrainTimeout:   500 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ctrl.Run(ctx, 25*time.Millisecond)

	script := chaos.Generate(11, chaos.GenConfig{
		Events:          10,
		Horizon:         1500 * time.Millisecond,
		Workers:         4,
		Stall:           true,
		Scale:           true,
		ScaleComponents: []string{"parse"},
	})
	rep, err := chaos.Run(c, script, chaos.Options{SpoutComponents: topo.Spouts()})
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("elastic chaos soak violated invariants:\n%s", rep)
	}
	if !rep.Drained {
		t.Fatalf("soak did not drain:\n%s", rep)
	}
	snap := c.Snapshot()
	if len(snap.Scale) == 0 || snap.Scale[0].Ups == 0 {
		t.Fatalf("no scale-ups recorded: %+v", snap.Scale)
	}
	t.Logf("clean: %s scale=%+v", rep, snap.Scale[0])
}
