package scenario

import (
	"math"
	"slices"
	"testing"
	"time"

	"predstream/internal/chaos"
	"predstream/internal/core"
	"predstream/internal/dsps"
	"predstream/internal/timeseries"
)

const testPeriod = 20 * time.Millisecond

func TestVictimsSpareTheSpoutWorker(t *testing.T) {
	snap := &dsps.Snapshot{Tasks: []dsps.TaskStats{
		{Component: "urls", TaskIndex: 0, WorkerID: "worker-0", IsSpout: true},
		{Component: "parse", TaskIndex: 3, WorkerID: "worker-1"},
		{Component: "parse", TaskIndex: 0, WorkerID: "worker-0"},
		{Component: "parse", TaskIndex: 2, WorkerID: "worker-2"},
		{Component: "parse", TaskIndex: 1, WorkerID: "worker-1"},
		{Component: "count", TaskIndex: 0, WorkerID: "worker-3"},
	}}
	want := []string{"worker-1", "worker-2"}
	if got := Victims(snap); !slices.Equal(got, want) {
		t.Fatalf("victims = %v, want %v", got, want)
	}
}

// TestRunFiresScheduleAtTicks checks that each event fires at the first
// tick at or after its At, that only victims are faulted, and that the
// per-step rates integrate to the acked count of the whole run.
func TestRunFiresScheduleAtTicks(t *testing.T) {
	events := []chaos.Event{
		{At: 50 * time.Millisecond, Kind: chaos.KindInject, WorkerIndex: 0, Fault: dsps.Fault{Slowdown: 2}},
		{At: 100 * time.Millisecond, Kind: chaos.KindInject, WorkerIndex: 1, Fault: dsps.Fault{Slowdown: 2}},
		{At: 200 * time.Millisecond, Kind: chaos.KindClear, WorkerIndex: 0},
	}
	res, err := Run(Spec{
		Period:  testPeriod,
		Measure: 300 * time.Millisecond,
		Control: &core.Config{Policy: core.PolicyBypass},
		Faults:  chaos.Script{Events: events},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 15 {
		t.Fatalf("trace has %d steps, want 15", len(res.Trace))
	}
	if len(res.Victims) < 2 {
		t.Fatalf("victims = %v, want at least 2", res.Victims)
	}
	var acked float64
	prev := time.Duration(0)
	for i, st := range res.Trace {
		tick := time.Duration(i+1) * testPeriod
		var want []string
		for w := 0; w < 2; w++ {
			on := false
			for _, ev := range events {
				if ev.WorkerIndex == w && ev.At <= tick {
					on = ev.Kind == chaos.KindInject
				}
			}
			if on {
				want = append(want, res.Victims[w])
			}
		}
		if !slices.Equal(st.Faults, want) {
			t.Fatalf("step %d (tick at %v): faulted %v, want %v", i, tick, st.Faults, want)
		}
		if len(st.Ratios) != len(res.Placement) {
			t.Fatalf("step %d: %d ratios for %d parse tasks", i, len(st.Ratios), len(res.Placement))
		}
		acked += st.AckedTPS * (st.At - prev).Seconds()
		prev = st.At
	}
	if total := res.ThroughputTPS * prev.Seconds(); math.Abs(acked-total) > 1 {
		t.Fatalf("per-step rates integrate to %.2f acked roots, the run acked %.2f", acked, total)
	}
}

func TestRunRejectsBadSchedule(t *testing.T) {
	for name, ev := range map[string]chaos.Event{
		"index past the victims": {Kind: chaos.KindInject, WorkerIndex: 99, Fault: dsps.Fault{Slowdown: 2}},
		"worker id":              {Kind: chaos.KindInject, Worker: "worker-0", Fault: dsps.Fault{Slowdown: 2}},
		"other kind":             {Kind: chaos.KindPause},
	} {
		_, err := Run(Spec{Period: testPeriod, Measure: testPeriod, Faults: chaos.Script{Events: []chaos.Event{ev}}})
		if err == nil {
			t.Errorf("%s: Run accepted %v", name, ev)
		}
	}
}

func TestRunFitsPredictorsOnceHistoryIsFull(t *testing.T) {
	const warmup = 100 * time.Millisecond
	res, err := Run(Spec{
		Period:  testPeriod,
		Warmup:  warmup,
		Measure: 200 * time.Millisecond,
		Control: &core.Config{
			MinHistory:   5,
			NewPredictor: func() timeseries.Predictor { return &timeseries.NaivePredictor{} },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fitted := slices.IndexFunc(res.Trace, func(st Step) bool { return st.Report.UsedModel })
	if fitted < 0 {
		t.Fatal("no step used the fitted predictors")
	}
	for i, st := range res.Trace[fitted:] {
		if !st.Report.UsedModel {
			t.Fatalf("step %d fell back to reactive after the fit at step %d", fitted+i, fitted)
		}
	}
	measured := res.Trace[warmup/testPeriod:]
	used := 0
	for _, st := range measured {
		if st.Report.UsedModel {
			used++
		}
	}
	if want := float64(used) / float64(len(measured)); res.UsedModelShare != want {
		t.Fatalf("UsedModelShare = %v, want %v", res.UsedModelShare, want)
	}
}
