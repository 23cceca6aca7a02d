package core

import (
	"fmt"
	"time"
)

// This file widens the planner from ratio-only output to ratio +
// parallelism actions. PlanRatios stays the split-vector primitive; the
// ScalePlanner adds a horizontal dimension driven by the same per-worker
// basis (the DRNN forecast folded with observations) plus queue occupancy,
// with hysteresis and cooldown so transient spikes don't thrash executors.

// Action is one component-level decision of a control step: a new input
// split, a parallelism delta, or both.
type Action struct {
	// Component is the controlled downstream stage.
	Component string
	// Ratios is the split vector applied to the component's dynamic
	// grouping; nil leaves the split untouched.
	Ratios []float64
	// Scale is the parallelism delta: executors to add (> 0) or drain
	// (< 0); 0 holds.
	Scale int
	// Reason is the planner's rationale for the scale decision.
	Reason string
}

// Plan is the full action set of one control step.
type Plan struct {
	Actions []Action
}

const (
	// downOccupancy is the occupancy below which a window counts toward
	// scaling down.
	downOccupancy = 0.05
	// upBasisFactor corroborates occupancy with the forecast channel: a
	// window also counts toward scaling up when the mean basis (predicted
	// processing time) reaches this multiple of the planner's calm
	// baseline while occupancy is at least UpOccupancy/2.
	upBasisFactor = 1.5
)

// ScaleConfig parameterizes the elastic scale planner. Zero fields take
// the noted defaults. One action adds or drains one executor.
type ScaleConfig struct {
	// MinParallelism and MaxParallelism clamp the live executor count;
	// defaults 1 and 8.
	MinParallelism int
	MaxParallelism int
	// UpOccupancy is the mean queue-occupancy fraction (0..1) above which
	// a window counts toward scaling up; default 0.5.
	UpOccupancy float64
	// UpWindows and DownWindows are the hysteresis streaks: consecutive
	// overloaded (resp. idle) windows required before acting. Defaults 2
	// and 6.
	UpWindows   int
	DownWindows int
	// Cooldown is the minimum time between scale actions on one
	// component; default 2s.
	Cooldown time.Duration
	// DrainTimeout bounds each scale-down's cooperative drain; default 2s.
	DrainTimeout time.Duration
}

func (c ScaleConfig) withDefaults() ScaleConfig {
	if c.MinParallelism <= 0 {
		c.MinParallelism = 1
	}
	if c.MaxParallelism <= 0 {
		c.MaxParallelism = 8
	}
	if c.UpOccupancy <= 0 {
		c.UpOccupancy = 0.5
	}
	if c.UpWindows <= 0 {
		c.UpWindows = 2
	}
	if c.DownWindows <= 0 {
		c.DownWindows = 6
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 2 * time.Second
	}
	return c
}

// ScaleSignals is one window's input to the scale planner.
type ScaleSignals struct {
	// Parallelism is the component's live executor count.
	Parallelism int
	// Occupancy is the mean input-queue occupancy fraction (0..1) across
	// the component's live executors.
	Occupancy float64
	// Basis is the mean per-worker basis (time-like: higher = slower)
	// over the workers hosting the component, i.e. the DRNN forecast
	// folded with observations exactly as the bypass planner sees it.
	Basis float64
}

// ScalePlanner turns per-window signals into parallelism deltas with
// hysteresis (consecutive-window streaks) and a cooldown. It is
// deterministic: state advances only through Decide, and time is passed
// in, so tests and replays drive it entirely.
type ScalePlanner struct {
	cfg        ScaleConfig
	upStreak   int
	downStreak int
	lastAction time.Time
	baseline   float64 // EMA of the basis during calm windows
}

// NewScalePlanner builds a planner with defaulted config.
func NewScalePlanner(cfg ScaleConfig) *ScalePlanner {
	return &ScalePlanner{cfg: cfg.withDefaults()}
}

// Decide consumes one window of signals and returns the parallelism delta
// to apply now (0 = hold) plus the rationale.
func (p *ScalePlanner) Decide(now time.Time, sig ScaleSignals) (delta int, reason string) {
	cfg := p.cfg
	// Track the calm-regime basis so a rising forecast is measured against
	// "what slow looks like when we're healthy", self-calibrating to the
	// workload's service cost.
	if sig.Basis > 0 && sig.Occupancy < cfg.UpOccupancy/2 {
		if p.baseline == 0 {
			p.baseline = sig.Basis
		} else {
			p.baseline = 0.9*p.baseline + 0.1*sig.Basis
		}
	}
	overloaded := sig.Occupancy >= cfg.UpOccupancy
	forecastHot := p.baseline > 0 &&
		sig.Basis >= upBasisFactor*p.baseline &&
		sig.Occupancy >= cfg.UpOccupancy/2
	idle := sig.Occupancy <= downOccupancy && !forecastHot

	switch {
	case overloaded || forecastHot:
		p.upStreak++
		p.downStreak = 0
	case idle:
		p.downStreak++
		p.upStreak = 0
	default:
		p.upStreak = 0
		p.downStreak = 0
	}

	cooled := p.lastAction.IsZero() || now.Sub(p.lastAction) >= cfg.Cooldown
	if p.upStreak >= cfg.UpWindows && cooled && sig.Parallelism < cfg.MaxParallelism {
		p.lastAction = now
		p.upStreak = 0
		why := "occupancy"
		if !overloaded {
			why = "forecast"
		}
		return 1, fmt.Sprintf("%s over threshold for %d windows (occ %.2f, basis %.3g vs baseline %.3g)",
			why, cfg.UpWindows, sig.Occupancy, sig.Basis, p.baseline)
	}
	if p.downStreak >= cfg.DownWindows && cooled && sig.Parallelism > cfg.MinParallelism {
		p.lastAction = now
		p.downStreak = 0
		return -1, fmt.Sprintf("idle for %d windows (occ %.2f)", cfg.DownWindows, sig.Occupancy)
	}
	return 0, ""
}
