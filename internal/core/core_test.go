package core

import (
	"errors"
	"math"
	"testing"

	"predstream/internal/timeseries"
)

func TestRelativeDetector(t *testing.T) {
	d, err := NewRelativeDetector(2)
	if err != nil {
		t.Fatal(err)
	}
	got := d.Detect(map[string]float64{
		"w0": 1.0, "w1": 1.1, "w2": 0.9, "w3": 8.0,
	})
	if !got["w3"] {
		t.Fatal("slow worker not flagged")
	}
	if got["w0"] || got["w1"] || got["w2"] {
		t.Fatalf("healthy workers flagged: %v", got)
	}
	if len(d.Detect(nil)) != 0 {
		t.Fatal("empty detect should be empty")
	}
}

func TestRelativeDetectorFactorValidation(t *testing.T) {
	if _, err := NewRelativeDetector(1); err == nil {
		t.Fatal("factor 1 should error")
	}
	if _, err := NewRelativeDetector(0.5); err == nil {
		t.Fatal("factor < 1 should error")
	}
}

func TestRelativeDetectorZeroMedian(t *testing.T) {
	d, _ := NewRelativeDetector(2)
	got := d.Detect(map[string]float64{"w0": 0, "w1": 0})
	if got["w0"] || got["w1"] {
		t.Fatal("zero-median input should flag nobody")
	}
}

func TestPlanRatiosProbeReservesShare(t *testing.T) {
	ratios, err := PlanRatios(PolicyBypass, []string{"w0", "w1", "w2"},
		map[string]float64{"w0": 1, "w1": 1, "w2": 10},
		map[string]bool{"w2": true}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ratios[2]-0.05) > 1e-12 {
		t.Fatalf("probe share = %v want 0.05", ratios[2])
	}
	var sum float64
	for _, r := range ratios {
		sum += r
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("ratios sum to %v", sum)
	}
	if math.Abs(ratios[0]-ratios[1]) > 1e-12 {
		t.Fatalf("healthy shares unequal: %v", ratios)
	}
	// Out-of-range probe is rejected.
	if _, err := PlanRatios(PolicyBypass, []string{"a"}, map[string]float64{"a": 1}, nil, 0.5); err == nil {
		t.Fatal("probe 0.5 accepted")
	}
	if _, err := PlanRatios(PolicyBypass, []string{"a"}, map[string]float64{"a": 1}, nil, -0.1); err == nil {
		t.Fatal("negative probe accepted")
	}
}

func TestPlanRatiosUniformPolicy(t *testing.T) {
	ratios, err := PlanRatios(PolicyUniform, []string{"w0", "w1"}, map[string]float64{"w0": 1, "w1": 9}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ratios[0] != 0.5 || ratios[1] != 0.5 {
		t.Fatalf("uniform = %v", ratios)
	}
}

func TestPlanRatiosWeightedInverse(t *testing.T) {
	// w1 predicted 3× slower → gets 1/4 of the stream.
	ratios, err := PlanRatios(PolicyWeighted, []string{"w0", "w1"},
		map[string]float64{"w0": 1, "w1": 3}, map[string]bool{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ratios[0]-0.75) > 1e-12 || math.Abs(ratios[1]-0.25) > 1e-12 {
		t.Fatalf("weighted = %v", ratios)
	}
}

func TestPlanRatiosBypassZeroesMisbehaving(t *testing.T) {
	ratios, err := PlanRatios(PolicyBypass, []string{"w0", "w1", "w2"},
		map[string]float64{"w0": 1, "w1": 1, "w2": 10},
		map[string]bool{"w2": true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ratios[2] != 0 {
		t.Fatalf("misbehaving worker kept share: %v", ratios)
	}
	if math.Abs(ratios[0]-0.5) > 1e-12 || math.Abs(ratios[1]-0.5) > 1e-12 {
		t.Fatalf("healthy split = %v", ratios)
	}
}

func TestPlanRatiosAllMisbehavingFallsBack(t *testing.T) {
	// If every worker is flagged, bypass must not zero the whole stream.
	ratios, err := PlanRatios(PolicyBypass, []string{"w0", "w1"},
		map[string]float64{"w0": 5, "w1": 10},
		map[string]bool{"w0": true, "w1": true}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, r := range ratios {
		sum += r
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("ratios sum to %v", sum)
	}
	if ratios[0] <= ratios[1] {
		t.Fatalf("faster worker should keep the larger share: %v", ratios)
	}
}

func TestPlanRatiosUnknownWorkerGetsMeanPrediction(t *testing.T) {
	ratios, err := PlanRatios(PolicyWeighted, []string{"w0", "ghost"},
		map[string]float64{"w0": 2}, map[string]bool{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// ghost gets the mean (2) → equal split.
	if math.Abs(ratios[0]-0.5) > 1e-12 {
		t.Fatalf("ratios = %v", ratios)
	}
}

func TestPlanRatiosDegenerateInputs(t *testing.T) {
	if _, err := PlanRatios(PolicyBypass, nil, nil, nil, 0); err == nil {
		t.Fatal("no tasks should error")
	}
	// No predictions → uniform.
	ratios, err := PlanRatios(PolicyBypass, []string{"a", "b"}, nil, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ratios[0] != 0.5 {
		t.Fatalf("no-prediction fallback = %v", ratios)
	}
	// Zero/negative predictions → uniform.
	ratios, err = PlanRatios(PolicyWeighted, []string{"a", "b"},
		map[string]float64{"a": 0, "b": -1}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ratios[0] != 0.5 {
		t.Fatalf("non-positive prediction fallback = %v", ratios)
	}
}

func TestPlanPolicyStrings(t *testing.T) {
	if PolicyBypass.String() != "bypass" || PolicyWeighted.String() != "weighted" ||
		PolicyUniform.String() != "uniform" {
		t.Fatal("policy strings wrong")
	}
	if PlanPolicy(9).String() == "" {
		t.Fatal("unknown policy string empty")
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.MinHistory != 30 || cfg.StallQueueMin != 16 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.Detector == nil {
		t.Fatal("no default detector")
	}
}

func TestNewControllerValidation(t *testing.T) {
	if _, err := NewController(nil, nil, Config{}); err == nil {
		t.Fatal("nil cluster should error")
	}
}

func TestFitPredictorsRequiresFactoryAndHistory(t *testing.T) {
	cl, targets, shutdown := newControlledTopology(t, 0)
	defer shutdown()
	c, err := NewController(cl, targets, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.FitPredictors(); err == nil {
		t.Fatal("fit without factory should error")
	}
	c2, err := NewController(cl, targets, Config{
		NewPredictor: func() timeseries.Predictor { return &timeseries.NaivePredictor{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.FitPredictors(); !errors.Is(err, ErrShortHistory) {
		t.Fatalf("fit without history: err = %v, want ErrShortHistory", err)
	}
}
