// Package trace produces the multilevel-statistics training data for the
// prediction experiments. Synthetic generates traces from a
// queueing-theoretic model of the causal structure a live cluster shows
// (load ↑ or co-location ↑ ⇒ processing time ↑, with temporal correlation
// and noise). This substitutes for the paper's multi-hour production
// cluster traces: it is deterministic, laptop-scale, and long enough to
// train the DRNN, while exercising exactly the feature→target
// relationships a telemetry.Sampler records from a live dsps cluster.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"predstream/internal/telemetry"
	"predstream/internal/workload"
)

// SyntheticConfig parameterizes the queueing-model generator.
type SyntheticConfig struct {
	// Workers is the number of simulated workers; default 4.
	Workers int
	// Nodes is the number of machines workers are spread over
	// round-robin; default 2.
	Nodes int
	// Cores per node; default 4.
	Cores int
	// BaseMs is the uncontended mean per-tuple processing time in
	// milliseconds; default 1.
	BaseMs float64
	// Shape drives the offered load per worker in tuples/s; default
	// sinusoid 800±400 with a 60-window period.
	Shape workload.RateShape
	// Shapes optionally gives each worker its own load shape (index =
	// worker), making co-located load genuinely independent information —
	// the regime where the paper's interference features matter. When
	// shorter than Workers, remaining workers use Shape.
	Shapes []workload.RateShape
	// PeriodSec is the measurement window length in seconds; default 1.
	PeriodSec float64
	// Steps is the number of windows to generate; default 600.
	Steps int
	// Alpha scales interference: processing time multiplies by
	// (1 + Alpha·max(0, ρ−1)) where ρ is node utilization; default 1.
	Alpha float64
	// InterferenceLag delays the impact of co-located workers' load on a
	// worker's processing time by this many windows (own load always acts
	// immediately). This models backlog-driven CPU pressure: a co-worker's
	// arrival burst steals cycles while its queue drains over the next
	// windows. With a positive lag, co-worker features become genuinely
	// predictive information that the target's own history cannot supply —
	// the regime of the paper's interference-aware model. Default 0.
	InterferenceLag int
	// NoiseStd is the std-dev of the multiplicative AR(1) noise on
	// processing time; default 0.05.
	NoiseStd float64
	// ARCoef is the noise persistence in [0,1); default 0.7.
	ARCoef float64
	// SpikeProb is the per-window probability of a transient processing
	// spike; default 0.02.
	SpikeProb float64
	// SpikeX multiplies processing time during a spike; default 3.
	SpikeX float64
	// Slowdowns optionally marks workers misbehaving: worker index →
	// multiplier ≥ 1 applied from StepFaultAt onward.
	Slowdowns map[int]float64
	// FaultAt is the window index faults begin (0 = from the start).
	FaultAt int
	// Seed drives all randomness; default 1.
	Seed int64
}

func (c SyntheticConfig) withDefaults() SyntheticConfig {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.Nodes <= 0 {
		c.Nodes = 2
	}
	if c.Cores <= 0 {
		c.Cores = 4
	}
	if c.BaseMs <= 0 {
		c.BaseMs = 1
	}
	if c.Shape == nil {
		c.Shape = workload.SinusoidRate{Base: 800, Amplitude: 400, Period: 60 * time.Second}
	}
	if c.PeriodSec <= 0 {
		c.PeriodSec = 1
	}
	if c.Steps <= 0 {
		c.Steps = 600
	}
	if c.Alpha == 0 {
		c.Alpha = 1
	}
	if c.NoiseStd == 0 {
		c.NoiseStd = 0.05
	}
	if c.ARCoef == 0 {
		c.ARCoef = 0.7
	}
	if c.SpikeProb == 0 {
		c.SpikeProb = 0.02
	}
	if c.SpikeX == 0 {
		c.SpikeX = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Synthetic generates per-worker WindowStats series under the queueing
// model. Worker w on a node shares that node's capacity with its
// co-located workers; processing time responds to node utilization,
// injected slowdowns, and autocorrelated noise.
func Synthetic(cfg SyntheticConfig) map[string][]telemetry.WindowStats {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	nodeOf := make([]int, cfg.Workers)
	for w := range nodeOf {
		nodeOf[w] = w % cfg.Nodes
	}
	// Per-worker load phase offsets decorrelate workers slightly.
	phase := make([]float64, cfg.Workers)
	arNoise := make([]float64, cfg.Workers)
	for w := range phase {
		phase[w] = rng.Float64() * 10
	}
	out := make(map[string][]telemetry.WindowStats, cfg.Workers)
	start := time.Unix(0, 0)
	period := time.Duration(cfg.PeriodSec * float64(time.Second))

	rates := make([]float64, cfg.Workers)
	procMs := make([]float64, cfg.Workers)
	// rateHistory[k] holds the rates of window step-1-k (most recent
	// first), sized for the interference lag.
	var rateHistory [][]float64
	for step := 0; step < cfg.Steps; step++ {
		elapsed := time.Duration(float64(step) * cfg.PeriodSec * float64(time.Second))
		// Offered load per worker.
		for w := 0; w < cfg.Workers; w++ {
			shape := cfg.Shape
			if w < len(cfg.Shapes) && cfg.Shapes[w] != nil {
				shape = cfg.Shapes[w]
			}
			shaped := shape.Rate(elapsed + time.Duration(phase[w]*float64(time.Second)))
			rates[w] = math.Max(0, shaped*(1+0.05*rng.NormFloat64()))
		}
		// Node utilization from uncontended service demand. Co-worker
		// demand optionally acts with a lag (see InterferenceLag); own
		// demand always acts immediately.
		lagRates := rates
		if cfg.InterferenceLag > 0 {
			if len(rateHistory) >= cfg.InterferenceLag {
				lagRates = rateHistory[cfg.InterferenceLag-1]
			} else if len(rateHistory) > 0 {
				lagRates = rateHistory[len(rateHistory)-1]
			}
		}
		nodeRho := make([]float64, cfg.Nodes)
		nodeLagRho := make([]float64, cfg.Nodes)
		for w := 0; w < cfg.Workers; w++ {
			nodeRho[nodeOf[w]] += rates[w] * cfg.BaseMs / 1000 / float64(cfg.Cores)
			nodeLagRho[nodeOf[w]] += lagRates[w] * cfg.BaseMs / 1000 / float64(cfg.Cores)
		}
		// Processing time per worker.
		rhoEff := make([]float64, cfg.Workers)
		for w := 0; w < cfg.Workers; w++ {
			node := nodeOf[w]
			ownDemand := rates[w] * cfg.BaseMs / 1000 / float64(cfg.Cores)
			rho := nodeRho[node]
			if cfg.InterferenceLag > 0 {
				// Own demand current + co-worker demand lagged.
				rho = ownDemand + (nodeLagRho[node] - lagRates[w]*cfg.BaseMs/1000/float64(cfg.Cores))
			}
			rhoEff[w] = rho
			m := cfg.BaseMs * (1 + cfg.Alpha*math.Max(0, rho*float64(cfg.Workers/cfg.Nodes)-1))
			// Queueing growth as the node saturates.
			if rho < 0.95 {
				m *= 1 / (1 - 0.5*rho)
			} else {
				m *= 2
			}
			if s, ok := cfg.Slowdowns[w]; ok && s > 1 && step >= cfg.FaultAt {
				m *= s
			}
			arNoise[w] = cfg.ARCoef*arNoise[w] + cfg.NoiseStd*rng.NormFloat64()
			m *= math.Exp(arNoise[w])
			if rng.Float64() < cfg.SpikeProb {
				m *= cfg.SpikeX
			}
			procMs[w] = m
		}
		for w := 0; w < cfg.Workers; w++ {
			node := nodeOf[w]
			var coWorkers, coExec, coProcSum float64
			coCount := 0
			for o := 0; o < cfg.Workers; o++ {
				if o == w || nodeOf[o] != node {
					continue
				}
				coWorkers++
				coExec += rates[o]
				coProcSum += procMs[o]
				coCount++
			}
			ws := telemetry.WindowStats{
				WorkerID:  fmt.Sprintf("worker-%d", w),
				NodeID:    fmt.Sprintf("node-%d", node),
				Start:     start.Add(time.Duration(step) * period),
				End:       start.Add(time.Duration(step+1) * period),
				ExecRate:  rates[w],
				EmitRate:  rates[w],
				AvgExecMs: procMs[w],
				// The worker's own queue responds to its *effective*
				// utilization (own load + the interference actually felt),
				// not the instantaneous node state — otherwise these
				// worker-level stats would leak co-located load into the
				// no-interference feature set and void the E4 ablation.
				AvgQueueMs:  math.Max(0, procMs[w]*rhoEff[w]*2),
				QueueLen:    math.Max(0, rhoEff[w]/(1.01-math.Min(rhoEff[w], 1))*10),
				CoWorkers:   coWorkers,
				CoExecRate:  coExec,
				NodeBusy:    nodeRho[node] * float64(cfg.Cores),
				Misbehaving: func() bool { s, ok := cfg.Slowdowns[w]; return ok && s > 1 && step >= cfg.FaultAt }(),
			}
			if coCount > 0 {
				ws.CoAvgExecMs = coProcSum / float64(coCount)
			}
			out[ws.WorkerID] = append(out[ws.WorkerID], ws)
		}
		if cfg.InterferenceLag > 0 {
			snapshot := make([]float64, len(rates))
			copy(snapshot, rates)
			rateHistory = append([][]float64{snapshot}, rateHistory...)
			if len(rateHistory) > cfg.InterferenceLag {
				rateHistory = rateHistory[:cfg.InterferenceLag]
			}
		}
	}
	return out
}
