package main

import (
	"context"
	"slices"
	"sync"
	"time"

	"predstream/internal/core"
	"predstream/internal/dsps"
	"predstream/internal/timeseries"
)

// The control step is measured from outside: the benchmark times
// Controller.Step and wraps the interfaces a step calls (core.Engine,
// timeseries.Predictor, core.Detector, core.RatioActuator) in decorators
// that record each call as a child span of the step. A step's self time is
// what the children do not cover: telemetry sampling and ratio planning.

// stepRecord is one timed Controller.Step.
type stepRecord struct {
	start, end time.Time
	// step and its children as spans on the probe's recorder clock
	// (children are empty on an untraced run).
	step      span
	children  []span
	usedModel bool
	// applied is the ratio vector the step set on "parse" (nil if none).
	applied []float64
	err     error
}

func (s stepRecord) dur() time.Duration { return s.end.Sub(s.start) }

// childUs sums the step's children of one kind, in microseconds.
func (s stepRecord) childUs(kind string) float64 {
	var ns int64
	for _, c := range s.children {
		if c.Name == stepSpan+"."+kind {
			ns += c.dur()
		}
	}
	return float64(ns) / 1e3
}

// selfUs is the step's self time: what its children do not cover.
func (s stepRecord) selfUs() float64 { return float64(selfNs(s.step, s.children)) / 1e3 }

// stepSpan names the span of one Controller.Step; its children are
// stepSpan.snapshot, .predict, .detect and .actuate.
const stepSpan = "core.step"

// stepProbe collects the child spans of the step in progress. A controller
// steps on one goroutine, so the probe needs no lock of its own. Every
// child is kept on the step's record; while rec is on it is also kept as a
// span of the run's trace.
type stepProbe struct {
	rec      *recorder
	id       uint64 // current step's span ID
	children []span
}

func (p *stepProbe) child(kind string, start, end time.Time) {
	c := span{Name: stepSpan + "." + kind, ID: p.id, Parent: stepSpan, Start: p.rec.ns(start), End: p.rec.ns(end)}
	p.children = append(p.children, c)
	if p.rec.enabled() {
		p.rec.add(c.Name, c.ID, c.Parent, start, end)
	}
}

// timedEngine decorates core.Engine.
type timedEngine struct {
	core.Engine
	p *stepProbe
}

// Snapshot implements core.Engine.
func (e timedEngine) Snapshot() *dsps.Snapshot {
	t0 := time.Now()
	s := e.Engine.Snapshot()
	e.p.child("snapshot", t0, time.Now())
	return s
}

// timedDetector decorates core.Detector.
type timedDetector struct {
	inner core.Detector
	p     *stepProbe
}

// Detect implements core.Detector.
func (d timedDetector) Detect(predicted map[string]float64) map[string]bool {
	t0 := time.Now()
	out := d.inner.Detect(predicted)
	d.p.child("detect", t0, time.Now())
	return out
}

// timedActuator decorates core.RatioActuator.
type timedActuator struct {
	inner core.RatioActuator
	p     *stepProbe
}

// SetRatios implements core.RatioActuator.
func (a timedActuator) SetRatios(ratios []float64) error {
	t0 := time.Now()
	err := a.inner.SetRatios(ratios)
	a.p.child("actuate", t0, time.Now())
	return err
}

// timedPredictor decorates timeseries.Predictor.
type timedPredictor struct {
	timeseries.Predictor
	p *stepProbe
}

// Predict implements timeseries.Predictor.
func (tp timedPredictor) Predict(recent *timeseries.Series, horizon int) (float64, error) {
	t0 := time.Now()
	v, err := tp.Predictor.Predict(recent, horizon)
	tp.p.child("predict", t0, time.Now())
	return v, err
}

// controlLoop steps one controller on a fixed period, as deployed, and
// keeps a record of every step.
type controlLoop struct {
	ctrl   *core.Controller
	probe  *stepProbe // nil on an untraced run
	period time.Duration

	mu    sync.Mutex
	steps []stepRecord
}

// newControlLoop builds a controller over engine and the parse edge. With
// rec set (a traced run), the engine, detector, actuator and predictors are
// wrapped in the timing decorators; otherwise the controller gets them
// bare.
func newControlLoop(engine core.Engine, parse core.RatioActuator, cfg core.Config, period time.Duration, rec *recorder) (*controlLoop, error) {
	l := &controlLoop{period: period}
	if rec != nil {
		p := &stepProbe{rec: rec}
		l.probe = p
		det, err := core.NewRelativeDetector(2) // the controller's own default
		if err != nil {
			return nil, err
		}
		cfg.Detector = timedDetector{inner: det, p: p}
		if mk := cfg.NewPredictor; mk != nil {
			cfg.NewPredictor = func() timeseries.Predictor { return timedPredictor{Predictor: mk(), p: p} }
		}
		engine = timedEngine{Engine: engine, p: p}
		parse = timedActuator{inner: parse, p: p}
	}
	ctrl, err := core.NewController(engine, []core.ControlTarget{{Component: "parse", Grouping: parse}}, cfg)
	if err != nil {
		return nil, err
	}
	l.ctrl = ctrl
	return l, nil
}

// stepOnce runs and records one step.
func (l *controlLoop) stepOnce(seq uint64) {
	if l.probe != nil {
		l.probe.children, l.probe.id = nil, seq
	}
	t0 := time.Now()
	rep, err := l.ctrl.Step()
	t1 := time.Now()
	sr := stepRecord{start: t0, end: t1, err: err, usedModel: rep.UsedModel, applied: rep.Applied["parse"]}
	if p := l.probe; p != nil {
		sr.step = span{Name: stepSpan, ID: seq, Start: p.rec.ns(t0), End: p.rec.ns(t1)}
		sr.children = p.children
		if p.rec.enabled() {
			p.rec.add(stepSpan, seq, "", t0, t1)
		}
	}
	l.mu.Lock()
	l.steps = append(l.steps, sr)
	l.mu.Unlock()
}

// run steps every period until ctx is done. idBase keeps the span IDs of
// several loops apart.
func (l *controlLoop) run(ctx context.Context, idBase uint64) {
	tick := time.NewTicker(l.period)
	defer tick.Stop()
	seq := idBase
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			seq++
			l.stepOnce(seq)
		}
	}
}

// count returns how many steps have been recorded so far.
func (l *controlLoop) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.steps)
}

// snapshotSteps returns a copy of the steps recorded so far.
func (l *controlLoop) snapshotSteps() []stepRecord {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]stepRecord(nil), l.steps...)
}

// lastStep returns the most recent step and whether there is one.
func (l *controlLoop) lastStep() (stepRecord, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.steps) == 0 {
		return stepRecord{}, false
	}
	return l.steps[len(l.steps)-1], true
}

// minChildCover is the share of a step's duration that its children must
// account for, at the median, when every interface the step calls is
// decorated (measured on fleet_fault: about 0.9).
const minChildCover = 0.5

// reportSteps files the core.step.* metrics of the decorated steps that
// started in [from, to). Every step must have a child of each of kinds: a
// step that lacks one called an interface the benchmark did not decorate,
// and its time would pass for the step's own. With the predictors
// decorated too ("predict" among kinds) the children must also cover
// minChildCover of the step.
func reportSteps(res *result, steps []stepRecord, from, to time.Time, kinds ...string) {
	var durs, snap, pred, det, act, self, cover []float64
	used, lacking := 0, 0
	coverAtLeast := 0.0
	if slices.Contains(kinds, "predict") {
		coverAtLeast = minChildCover
	}
	for _, s := range steps {
		// A controller's first step only takes the baseline snapshot.
		if s.start.Before(from) || !s.start.Before(to) || s.applied == nil {
			continue
		}
		durs = append(durs, us(s.dur()))
		children := 0.0
		for _, c := range s.children {
			children += float64(c.dur()) / 1e3
		}
		if d := us(s.dur()); d > 0 {
			cover = append(cover, children/d)
		}
		for _, k := range kinds {
			if s.childUs(k) == 0 {
				lacking++
				break
			}
		}
		if s.usedModel {
			used++
		}
		snap = append(snap, s.childUs("snapshot"))
		pred = append(pred, s.childUs("predict"))
		det = append(det, s.childUs("detect"))
		act = append(act, s.childUs("actuate"))
		self = append(self, s.selfUs())
	}
	if len(durs) == 0 {
		return
	}
	res.checkf("step_children_decorated", lacking == 0 && median(cover) >= coverAtLeast,
		"%d of %d steps lack one of the children %v; the children's own durations sum to %.0f%% of the step at the median (at least %.0f%% wanted)",
		lacking, len(durs), kinds, median(cover)*100, coverAtLeast*100)
	res.setMedian("core.step_us_p50", durs)
	res.setTail("core.step_us_p99", durs, 0.99)
	res.set("core.used_model_share", float64(used)/float64(len(durs)))
	res.setMedian("core.step.snapshot_us", snap)
	res.setMedian("core.step.predict_us", pred)
	res.setMedian("core.step.detect_us", det)
	res.setMedian("core.step.actuate_us", act)
	res.setMedian("core.step.self_us", self)
}

// us converts a duration to microseconds.
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
