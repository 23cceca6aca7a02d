package dsps_test

import (
	"fmt"
	"time"

	"predstream/internal/dsps"
)

// Example builds the canonical word-count topology, runs it to completion
// on the simulated cluster, and reads the engine counters.
func Example() {
	words := []string{"tuple", "stream", "tuple"}
	next := 0
	var collector dsps.SpoutCollector

	builder := dsps.NewTopologyBuilder("wordcount")
	builder.SetSpout("words", func() dsps.Spout {
		return &dsps.SpoutFunc{
			OpenFn: func(_ dsps.TopologyContext, c dsps.SpoutCollector) { collector = c },
			NextFn: func() bool {
				if next >= len(words) {
					return false
				}
				collector.Emit(dsps.Values{words[next]}, next)
				next++
				return true
			},
		}
	}, 1, "word")
	counts := map[string]int{}
	builder.SetBolt("count", func() dsps.Bolt {
		return &dsps.BoltFunc{
			ExecuteFn: func(t *dsps.Tuple, _ dsps.OutputCollector) {
				w, err := t.String("word")
				if err == nil {
					counts[w]++
				}
			},
		}
	}, 1).FieldsGrouping("words", "word")
	topo, err := builder.Build()
	if err != nil {
		fmt.Println(err)
		return
	}

	cluster := dsps.NewCluster(dsps.ClusterConfig{Nodes: 1, Delayer: dsps.NopDelayer{}})
	if err := cluster.Submit(topo, dsps.SubmitConfig{}); err != nil {
		fmt.Println(err)
		return
	}
	defer cluster.Shutdown()
	cluster.Drain(5 * time.Second)

	snap := cluster.Snapshot()
	fmt.Printf("acked=%d tuple=%d stream=%d\n", snap.TotalAcked(), counts["tuple"], counts["stream"])
	// Output: acked=3 tuple=2 stream=1
}

// ExampleDynamicGrouping shows the paper's controllable grouping: a split
// ratio that can be changed on the fly.
func ExampleDynamicGrouping() {
	g := &dsps.DynamicGrouping{}
	if err := g.SetRatios([]float64{3, 1}); err != nil {
		fmt.Println(err)
		return
	}
	counts := [2]int{}
	for i := 0; i < 8; i++ {
		counts[g.Select(nil, 2)]++
	}
	fmt.Printf("before update: %d/%d\n", counts[0], counts[1])

	// Redirect everything away from task 0 — e.g. its worker misbehaves.
	if err := g.SetRatios([]float64{0, 1}); err != nil {
		fmt.Println(err)
		return
	}
	counts = [2]int{}
	for i := 0; i < 8; i++ {
		counts[g.Select(nil, 2)]++
	}
	fmt.Printf("after update:  %d/%d\n", counts[0], counts[1])
	// Output:
	// before update: 6/2
	// after update:  0/8
}

// ExampleDynamicGrouping_SetOnChange observes ratio changes as they are
// applied — the hook the observability event log uses to record every
// plan the controller installs.
func ExampleDynamicGrouping_SetOnChange() {
	g := &dsps.DynamicGrouping{}
	g.SetOnChange(func(ratios []float64) {
		fmt.Printf("ratios now %v\n", ratios)
	})
	if err := g.SetRatios([]float64{0.75, 0.25}); err != nil {
		fmt.Println(err)
		return
	}
	if err := g.SetRatios([]float64{0, 1}); err != nil {
		fmt.Println(err)
		return
	}
	// Output:
	// ratios now [0.75 0.25]
	// ratios now [0 1]
}
