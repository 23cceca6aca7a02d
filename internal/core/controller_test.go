package core

import (
	"context"
	"testing"
	"time"

	"predstream/internal/dsps"
	"predstream/internal/timeseries"
)

// newControlledTopology builds a 1-spout → 3-task bolt topology with
// dynamic grouping, one worker per bolt task (worker-1..worker-3; the
// spout rides on worker-0), and a per-tuple cost so faults show up in the
// statistics. limit 0 means unbounded emission.
func newControlledTopology(t *testing.T, limit int) (*dsps.Cluster, []ControlTarget, func()) {
	t.Helper()
	if limit <= 0 {
		limit = 1 << 30
	}
	b := dsps.NewTopologyBuilder("controlled")
	emitted := 0
	var col dsps.SpoutCollector
	b.SetSpout("src", func() dsps.Spout {
		return &dsps.SpoutFunc{
			OpenFn: func(_ dsps.TopologyContext, c dsps.SpoutCollector) { col = c },
			NextFn: func() bool {
				if emitted >= limit {
					return false
				}
				col.Emit(dsps.Values{emitted}, emitted)
				emitted++
				return true
			},
		}
	}, 1, "n")
	// 5ms clears this machine's ~2ms sleep-granularity floor so injected
	// slowdowns dominate timer noise in the measured statistics.
	bd := b.SetBolt("work", func() dsps.Bolt { return &dsps.BoltFunc{} }, 3).
		WithExecCost(5 * time.Millisecond)
	dg := bd.DynamicGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := dsps.NewCluster(dsps.ClusterConfig{
		Nodes:        2,
		CoresPerNode: 2,
		Delayer:      dsps.RealDelayer{},
		Seed:         11,
		AckTimeout:   10 * time.Second,
	})
	if err := c.Submit(topo, dsps.SubmitConfig{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	return c, []ControlTarget{{Component: "work", Grouping: dg}}, c.Shutdown
}

func TestControllerStepBeforeAnyHistory(t *testing.T) {
	cl, targets, shutdown := newControlledTopology(t, 100)
	defer shutdown()
	c, err := NewController(cl, targets, Config{})
	if err != nil {
		t.Fatal(err)
	}
	report, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Predicted) != 0 {
		t.Fatal("first step should only establish a baseline")
	}
	if len(c.History()) != 1 {
		t.Fatal("history not recorded")
	}
}

func TestControllerReactiveStepsApplyRatios(t *testing.T) {
	cl, targets, shutdown := newControlledTopology(t, 0)
	defer shutdown()
	c, err := NewController(cl, targets, Config{Policy: PolicyWeighted})
	if err != nil {
		t.Fatal(err)
	}
	var got StepReport
	for i := 0; i < 6; i++ {
		time.Sleep(30 * time.Millisecond)
		r, err := c.Step()
		if err != nil {
			t.Fatal(err)
		}
		got = r
	}
	ratios, ok := got.Applied["work"]
	if !ok {
		t.Fatalf("no ratios applied: %+v", got)
	}
	if len(ratios) != 3 {
		t.Fatalf("ratios = %v", ratios)
	}
	var sum float64
	for _, r := range ratios {
		sum += r
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("ratios sum = %v", sum)
	}
	if got.UsedModel {
		t.Fatal("reactive controller claimed to use a model")
	}
	// The grouping handle actually carries the new ratios.
	if targets[0].Grouping.(*dsps.DynamicGrouping).Updates() == 0 {
		t.Fatal("grouping never updated")
	}
}

func TestControllerClosedLoopBypassesSlowWorker(t *testing.T) {
	// End-to-end E10 mechanics: run, observe, inject an 12× slowdown on
	// one bolt worker, and verify the controller steers its share near
	// zero while healthy workers keep the stream.
	cl, targets, shutdown := newControlledTopology(t, 0)
	defer shutdown()
	c, err := NewController(cl, targets, Config{Policy: PolicyBypass})
	if err != nil {
		t.Fatal(err)
	}
	warm := func(steps int) {
		for i := 0; i < steps; i++ {
			time.Sleep(80 * time.Millisecond)
			if _, err := c.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	warm(5)
	// Bolt tasks sit on workers 1..3 (spout took worker-0). Slow one.
	victim := "worker-2"
	if err := cl.InjectFault(victim, dsps.Fault{Slowdown: 12}); err != nil {
		t.Fatal(err)
	}
	// Give the slowdown time to show in the next windows, then control.
	warm(8)
	hist := c.History()
	last := hist[len(hist)-1]
	ratios := last.Applied["work"]
	if len(ratios) != 3 {
		t.Fatalf("ratios = %v", ratios)
	}
	// Identify which task index is on the victim.
	snap := cl.Snapshot()
	victimIdx := -1
	for _, ts := range snap.ComponentTasks("work") {
		if ts.WorkerID == victim {
			victimIdx = ts.TaskIndex
		}
	}
	if victimIdx < 0 {
		t.Fatal("victim hosts no work task")
	}
	if !last.Misbehaving[victim] {
		t.Fatalf("victim not detected: predicted=%v", last.Predicted)
	}
	if ratios[victimIdx] != 0 {
		t.Fatalf("victim ratio = %v, want 0 (bypass)", ratios[victimIdx])
	}
}

func TestControllerProbeReadmitsRecoveredWorker(t *testing.T) {
	// With a probe ratio, a bypassed worker keeps receiving a trickle of
	// tuples, so when its fault clears the controller observes recovery
	// and restores its share — the re-admission path hard bypass lacks.
	cl, targets, shutdown := newControlledTopology(t, 0)
	defer shutdown()
	c, err := NewController(cl, targets, Config{Policy: PolicyBypass, ProbeRatio: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	warm := func(steps int) StepReport {
		var last StepReport
		for i := 0; i < steps; i++ {
			time.Sleep(80 * time.Millisecond)
			r, err := c.Step()
			if err != nil {
				t.Fatal(err)
			}
			last = r
		}
		return last
	}
	warm(5)
	victim := "worker-2"
	victimIdx := -1
	for _, ts := range cl.Snapshot().ComponentTasks("work") {
		if ts.WorkerID == victim {
			victimIdx = ts.TaskIndex
		}
	}
	if victimIdx < 0 {
		t.Fatal("victim hosts no work task")
	}
	if err := cl.InjectFault(victim, dsps.Fault{Slowdown: 12}); err != nil {
		t.Fatal(err)
	}
	during := warm(8)
	if !during.Misbehaving[victim] {
		t.Fatalf("victim not detected: %v", during.Predicted)
	}
	if got := during.Applied["work"][victimIdx]; got != 0.05 {
		t.Fatalf("probe share = %v want 0.05", got)
	}
	cl.ClearFault(victim)
	after := warm(10)
	if after.Misbehaving[victim] {
		t.Fatalf("victim still flagged after recovery: %v", after.Predicted)
	}
	if got := after.Applied["work"][victimIdx]; got < 0.2 {
		t.Fatalf("recovered share = %v, want restored toward fair 1/3", got)
	}
}

func TestControllerFitAndPredictLoop(t *testing.T) {
	cl, targets, shutdown := newControlledTopology(t, 0)
	defer shutdown()
	c, err := NewController(cl, targets, Config{
		Policy:       PolicyWeighted,
		MinHistory:   5,
		NewPredictor: func() timeseries.Predictor { return &timeseries.NaivePredictor{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		time.Sleep(30 * time.Millisecond)
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.FitPredictors(); err != nil {
		t.Fatal(err)
	}
	if !c.Fitted() {
		t.Fatal("not fitted")
	}
	time.Sleep(30 * time.Millisecond)
	r, err := c.Step()
	if err != nil {
		t.Fatal(err)
	}
	if !r.UsedModel {
		t.Fatal("fitted controller did not use its model")
	}
}

func TestControllerQueueChannelCatchesStalledWorker(t *testing.T) {
	// A fully stalled worker never executes, so every time-based signal
	// carries forward its last healthy value; only its backlog grows. The
	// queue channel must flag and bypass it.
	cl, targets, shutdown := newControlledTopology(t, 0)
	defer shutdown()
	c, err := NewController(cl, targets, Config{Policy: PolicyBypass, StallQueueMin: 8})
	if err != nil {
		t.Fatal(err)
	}
	warm := func(steps int) StepReport {
		var last StepReport
		for i := 0; i < steps; i++ {
			time.Sleep(80 * time.Millisecond)
			r, err := c.Step()
			if err != nil {
				t.Fatal(err)
			}
			last = r
		}
		return last
	}
	warm(4)
	victim := "worker-2"
	if err := cl.InjectFault(victim, dsps.Fault{Stall: true}); err != nil {
		t.Fatal(err)
	}
	last := warm(8)
	if !last.Misbehaving[victim] {
		t.Fatalf("stalled worker not flagged: basis=%v", last.Basis)
	}
	snap := cl.Snapshot()
	victimIdx := -1
	for _, ts := range snap.ComponentTasks("work") {
		if ts.WorkerID == victim {
			victimIdx = ts.TaskIndex
		}
	}
	if got := last.Applied["work"][victimIdx]; got != 0 {
		t.Fatalf("stalled worker kept ratio %v", got)
	}
}

func TestControllerRunLoopAndCancel(t *testing.T) {
	cl, targets, shutdown := newControlledTopology(t, 0)
	defer shutdown()
	c, err := NewController(cl, targets, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Run(context.Background(), 0); err == nil {
		t.Fatal("zero period should error")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	if err := c.Run(ctx, 25*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(c.History()) < 3 {
		t.Fatalf("run loop recorded %d steps", len(c.History()))
	}
}

// Fitted reports whether per-worker predictors have been trained.
func (c *Controller) Fitted() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fitted
}

// blockingPredictor's Fit waits for release, so a test can step the
// controller while a fit is in progress.
type blockingPredictor struct {
	timeseries.NaivePredictor
	entered chan struct{}
	release chan struct{}
}

func (p *blockingPredictor) Fit(train *timeseries.Series) error {
	select {
	case p.entered <- struct{}{}:
	default:
	}
	<-p.release
	return p.NaivePredictor.Fit(train)
}

// TestStepRunsDuringFit pins that a refit does not freeze the control
// loop: while FitPredictors is training, Step must still return.
func TestStepRunsDuringFit(t *testing.T) {
	cl, targets, shutdown := newControlledTopology(t, 0)
	defer shutdown()
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	c, err := NewController(cl, targets, Config{
		Policy:     PolicyWeighted,
		MinHistory: 3,
		NewPredictor: func() timeseries.Predictor {
			return &blockingPredictor{entered: entered, release: release}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		time.Sleep(20 * time.Millisecond)
		if _, err := c.Step(); err != nil {
			t.Fatal(err)
		}
	}
	fitErr := make(chan error, 1)
	go func() { fitErr <- c.FitPredictors() }()
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		close(release)
		t.Fatal("fit never started")
	}
	stepped := make(chan error, 1)
	go func() {
		_, err := c.Step()
		stepped <- err
	}()
	select {
	case err := <-stepped:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		close(release)
		t.Fatal("Step blocked while a fit was in progress")
	}
	if c.Fitted() {
		t.Fatal("controller reports fitted before its fit returned")
	}
	close(release)
	if err := <-fitErr; err != nil {
		t.Fatal(err)
	}
	if !c.Fitted() {
		t.Fatal("not fitted after FitPredictors returned")
	}
}
