// Reliability demo: the reactive control loop against a misbehaving
// worker. Windowed URL Count runs with dynamic grouping; at t=3s one parse
// worker is slowed 8×; the controller detects it from the last window's
// runtime statistics (no predictor is fitted), steers its share of the
// stream to zero, and throughput recovers — against a static baseline the
// same fault collapses throughput.
//
//	go run ./examples/reliability
package main

import (
	"fmt"
	"log"
	"time"

	"predstream/internal/chaos"
	"predstream/internal/core"
	"predstream/internal/dsps"
	"predstream/internal/scenario"
)

func main() {
	arms := []struct {
		label   string
		control *core.Config
	}{
		{"framework (dynamic grouping + reactive controller)", &core.Config{Policy: core.PolicyBypass}},
		{"static baseline (shuffle grouping)", nil},
	}
	for _, arm := range arms {
		res, err := scenario.Run(scenario.Spec{
			Period:  500 * time.Millisecond,
			Measure: 10 * time.Second,
			Control: arm.control,
			Faults: chaos.Script{Events: []chaos.Event{
				{At: 3 * time.Second, Kind: chaos.KindInject, Fault: dsps.Fault{Slowdown: 8}},
			}},
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s: 8x slowdown on %s at t=3s ==\n", arm.label, res.Victims[0])
		for _, st := range res.Trace {
			fmt.Printf("  t=%4.1fs faulted=%-10s throughput %6.0f tuples/s\n",
				st.At.Seconds(), fmt.Sprint(st.Faults), st.AckedTPS)
		}
		fmt.Println()
	}
}
