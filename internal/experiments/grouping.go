package experiments

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"predstream/internal/dsps"
)

// GroupingConfig parameterizes E5, the dynamic-grouping validation.
type GroupingConfig struct {
	// Tasks is the downstream parallelism; default 2.
	Tasks int
	// Phases are the requested ratio vectors, applied in sequence.
	// Default: 50/50 → 70/30 → 30/70.
	Phases [][]float64
	// TuplesPerPhase is how many tuples flow during each phase; default
	// 2000.
	TuplesPerPhase int
	// Bins is how many observation bins each phase is split into (the
	// time axis of the E5 figure); default 4.
	Bins int
}

func (c GroupingConfig) withDefaults() GroupingConfig {
	if c.Tasks <= 0 {
		c.Tasks = 2
	}
	if len(c.Phases) == 0 {
		c.Phases = [][]float64{{0.5, 0.5}, {0.7, 0.3}, {0.3, 0.7}}
	}
	if c.TuplesPerPhase <= 0 {
		c.TuplesPerPhase = 2000
	}
	if c.Bins <= 0 {
		c.Bins = 4
	}
	return c
}

// GroupingBin is one observation bin of E5.
type GroupingBin struct {
	Phase     int
	Bin       int
	Requested []float64
	Observed  []float64 // fraction of the bin's tuples per task
}

// GroupingResult is the E5 series.
type GroupingResult struct {
	Bins []GroupingBin
	// MaxDeviation is the largest |observed−requested| over all bins and
	// tasks.
	MaxDeviation float64
}

// Render prints the E5 series.
func (r *GroupingResult) Render() string {
	var b strings.Builder
	b.WriteString("Dynamic grouping validation — requested vs observed split per bin\n")
	fmt.Fprintf(&b, "  %-6s %-4s %-24s %-24s\n", "phase", "bin", "requested", "observed")
	for _, bin := range r.Bins {
		fmt.Fprintf(&b, "  %-6d %-4d %-24s %-24s\n", bin.Phase, bin.Bin,
			fmtRatios(bin.Requested), fmtRatios(bin.Observed))
	}
	fmt.Fprintf(&b, "  max deviation: %.4f\n", r.MaxDeviation)
	return b.String()
}

func fmtRatios(rs []float64) string {
	parts := make([]string, len(rs))
	for i, r := range rs {
		parts[i] = fmt.Sprintf("%.3f", r)
	}
	return strings.Join(parts, "/")
}

// RunGrouping executes E5 on the live engine: a spout streams tuples
// through a dynamic grouping while the requested ratios step through the
// configured phases; per-bin observed distributions are computed from task
// counters.
func RunGrouping(cfg GroupingConfig) (*GroupingResult, error) {
	cfg = cfg.withDefaults()
	for i, p := range cfg.Phases {
		if len(p) != cfg.Tasks {
			return nil, fmt.Errorf("experiments: phase %d has %d ratios for %d tasks", i, len(p), cfg.Tasks)
		}
	}

	// The spout emits against an atomic budget: each observation bin
	// raises the budget by exactly binSize tuples and drains, so bin
	// boundaries are tuple-exact regardless of engine speed.
	var budget, emitted atomic.Int64
	var col dsps.SpoutCollector
	b := dsps.NewTopologyBuilder("e5-dynamic-grouping")
	b.SetSpout("src", func() dsps.Spout {
		return &dsps.SpoutFunc{
			OpenFn: func(_ dsps.TopologyContext, c dsps.SpoutCollector) { col = c },
			NextFn: func() bool {
				n := emitted.Load()
				if n >= budget.Load() {
					return false
				}
				// Typed lane emit: no Values slice, no msgID boxing. The +1
				// keeps the first tuple anchored (msgID 0 means unanchored).
				col.EmitInt64(n, uint64(n)+1)
				emitted.Store(n + 1)
				return true
			},
		}
	}, 1, "n")
	dg := b.SetBolt("sink", func() dsps.Bolt { return &dsps.BoltFunc{} }, cfg.Tasks).
		DynamicGrouping("src")
	topo, err := b.Build()
	if err != nil {
		return nil, err
	}
	ccfg := dsps.ClusterConfig{Nodes: 2, Delayer: dsps.NopDelayer{}, Seed: 1}
	cluster := dsps.NewCluster(ccfg)
	if err := cluster.Submit(topo, dsps.SubmitConfig{}); err != nil {
		return nil, err
	}
	defer cluster.Shutdown()

	result := &GroupingResult{}
	prevCounts := taskCounts(cluster, "sink", cfg.Tasks)
	binSize := cfg.TuplesPerPhase / cfg.Bins
	for phaseIdx, ratios := range cfg.Phases {
		if err := dg.SetRatios(ratios); err != nil {
			return nil, err
		}
		requested := dg.Ratios()
		for bin := 0; bin < cfg.Bins; bin++ {
			budget.Add(int64(binSize))
			deadline := time.Now().Add(10 * time.Second)
			for emitted.Load() < budget.Load() && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if !cluster.Drain(5 * time.Second) {
				return nil, fmt.Errorf("experiments: e5 failed to drain at phase %d bin %d", phaseIdx, bin)
			}
			counts := taskCounts(cluster, "sink", cfg.Tasks)
			observed := make([]float64, cfg.Tasks)
			var binTotal float64
			for i := range counts {
				observed[i] = float64(counts[i] - prevCounts[i])
				binTotal += observed[i]
			}
			prevCounts = counts
			if binTotal > 0 {
				for i := range observed {
					observed[i] /= binTotal
				}
			}
			gb := GroupingBin{Phase: phaseIdx, Bin: bin, Requested: requested, Observed: observed}
			for i := range observed {
				if d := abs(observed[i] - requested[i]); d > result.MaxDeviation {
					result.MaxDeviation = d
				}
			}
			result.Bins = append(result.Bins, gb)
		}
	}
	return result, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// taskCounts reads the executed counter of each task of a component,
// ordered by task index.
func taskCounts(c *dsps.Cluster, component string, n int) []int64 {
	snap := c.Snapshot()
	out := make([]int64, n)
	for _, ts := range snap.ComponentTasks(component) {
		if ts.TaskIndex < n {
			out[ts.TaskIndex] = ts.Executed
		}
	}
	return out
}
