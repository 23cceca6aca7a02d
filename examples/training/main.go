// Training demo: the paper's full pipeline end-to-end with the DRNN in
// the loop. The controller first runs reactively while collecting
// multilevel runtime statistics; once every worker has enough windows it
// trains one DRNN per worker on them; from then on split ratios are driven
// by model *predictions*. A fault injected afterwards is detected from the
// predicted processing times and bypassed.
//
//	go run ./examples/training
package main

import (
	"fmt"
	"log"
	"time"

	"predstream/internal/chaos"
	"predstream/internal/core"
	"predstream/internal/drnn"
	"predstream/internal/dsps"
	"predstream/internal/scenario"
	"predstream/internal/timeseries"
)

func main() {
	const (
		period  = 200 * time.Millisecond
		history = 25 // windows to collect before training
		steps   = 12 // measured steps under model-driven control
	)
	fmt.Printf("collecting %d statistics windows under reactive control, then training one DRNN per worker;\n", history)
	fmt.Println("an 8x slowdown lands once the models drive the ratios")
	res, err := scenario.Run(scenario.Spec{
		Period: period,
		// The first history+1 steps yield history windows; the fit runs
		// right after them, so the models drive every measured step.
		Warmup:  6 * time.Second,
		Measure: steps * period,
		Control: &core.Config{
			Policy:     core.PolicyBypass,
			MinHistory: history,
			NewPredictor: func() timeseries.Predictor {
				return drnn.New(drnn.Config{
					Window: 5, Hidden: []int{12}, DenseHidden: []int{8},
					Epochs: 15, LR: 5e-3,
				})
			},
		},
		Faults: chaos.Script{Events: []chaos.Event{
			{At: 6*time.Second + 4*period, Kind: chaos.KindInject, Fault: dsps.Fault{Slowdown: 8}},
		}},
	})
	if err != nil {
		log.Fatal(err)
	}
	victim := res.Victims[0]
	for i, st := range res.Trace {
		r := st.Report
		fmt.Printf("  step %2d model=%-5v faulted=%-10s %s: predicted=%6.2fms observed=%6.2fms flagged=%-5v ratios=%.2f\n",
			i, r.UsedModel, fmt.Sprint(st.Faults), victim, r.Predicted[victim], r.Observed[victim],
			r.Misbehaving[victim], st.Ratios)
	}
	fmt.Printf("model-driven share of the last %d steps: %.0f%%\n", steps, 100*res.UsedModelShare)
}
