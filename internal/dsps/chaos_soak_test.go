// Chaos soak: replays a seeded random fault timeline against a live
// three-stage topology while the chaos package's invariant checker watches
// tuple conservation, acker quiescence, monotone counters, and queue
// bounds. Lives in dsps_test because the chaos package imports dsps.
package dsps_test

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"predstream/internal/chaos"
	"predstream/internal/dsps"
)

// soakEngineTopology is src(2) -> mid(2) -> sink(3) with anchored
// emissions and fresh component instances per factory call, so rebalances
// can rebuild it.
func soakEngineTopology(t *testing.T) *dsps.Topology {
	t.Helper()
	b := dsps.NewTopologyBuilder("engine-soak")
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
	b.SetBolt("sink", func() dsps.Bolt { return &dsps.BoltFunc{} }, 3).
		FieldsGrouping("mid", "n")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestChaosSoakEngine runs ~1.2s of generated chaos (faults, rebalances, a
// mid-run checkpoint, a pause/resume pair) per engine seed by default;
// CHAOS_SOAK_SECONDS stretches the horizon for `make soak`. Each seed is
// a different routing and fault interleaving over ring attach/retire, the
// spout-applied acker and staged counters. Any violation reproduces from
// the printed seed.
func TestChaosSoakEngine(t *testing.T) {
	for _, seed := range []int64{7, 11, 13} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runChaosSoak(t, dsps.ClusterConfig{
				Nodes:           2,
				QueueSize:       64,
				MaxSpoutPending: 128,
				AckTimeout:      300 * time.Millisecond,
				Delayer:         dsps.NopDelayer{},
				Seed:            seed,
			})
		})
	}
}

func runChaosSoak(t *testing.T, cfg dsps.ClusterConfig) {
	horizon := 1200 * time.Millisecond
	events := 16
	if s := os.Getenv("CHAOS_SOAK_SECONDS"); s != "" {
		if sec, err := strconv.Atoi(s); err == nil && sec > 0 {
			horizon = time.Duration(sec) * time.Second
			events = 8 * sec
		}
	}
	topo := soakEngineTopology(t)
	c := dsps.NewCluster(cfg)
	if err := c.Submit(topo, dsps.SubmitConfig{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()

	script := chaos.Generate(cfg.Seed, chaos.GenConfig{
		Events:  events,
		Horizon: horizon,
		Workers: 4,
		Stall:   true, Rebalance: true, Checkpoint: true, Pause: true,
	})
	rep, err := chaos.Run(c, script, chaos.Options{SpoutComponents: topo.Spouts()})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("chaos soak violated engine invariants:\n%s", rep)
	}
	if !rep.Drained {
		t.Fatalf("cluster failed to quiesce after chaos:\n%s", rep)
	}
	t.Logf("clean: %s", rep)
}
