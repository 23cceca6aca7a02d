package experiments

import (
	"fmt"
	"strings"
	"time"

	"predstream/internal/apps/urlcount"
	"predstream/internal/dsps"
	"predstream/internal/telemetry"
)

// InterferenceConfig parameterizes E12: cross-topology co-location
// interference, the scenario behind the paper's "interference of
// co-located worker processes".
type InterferenceConfig struct {
	// Seed drives the workloads.
	Seed int64

	// windows is the number of measurement windows recorded; the noisy
	// neighbour starts at windows/2. Default 16; tests record fewer.
	windows int
	// period is the measurement window length; default 250ms; tests
	// shorten it.
	period time.Duration
}

// neighborCost is the E12 neighbour topology's per-tuple cost.
const neighborCost = 5 * time.Millisecond

func (c InterferenceConfig) withDefaults() InterferenceConfig {
	if c.windows <= 0 {
		c.windows = 16
	}
	if c.period <= 0 {
		c.period = 250 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// InterferencePoint is one window of E12.
type InterferencePoint struct {
	Window       int
	NeighborOn   bool
	FgAvgExecMs  float64 // foreground workers' mean processing time
	FgCoExecRate float64 // co-located execute rate the fg telemetry sees
	FgNodeBusy   float64
}

// InterferenceResult is the E12 trace.
type InterferenceResult struct {
	Points []InterferencePoint
	// BeforeMs and AfterMs are the mean fg processing times without/with
	// the neighbour.
	BeforeMs, AfterMs float64
}

// Render prints the E12 series.
func (r *InterferenceResult) Render() string {
	var b strings.Builder
	b.WriteString("Cross-topology interference — foreground processing time vs co-located load\n")
	fmt.Fprintf(&b, "  %-7s %-9s %12s %14s %10s\n", "window", "neighbor", "fg exec(ms)", "co exec rate", "node busy")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "  %-7d %-9v %12.3f %14.0f %10.1f\n",
			p.Window, p.NeighborOn, p.FgAvgExecMs, p.FgCoExecRate, p.FgNodeBusy)
	}
	fmt.Fprintf(&b, "  mean fg processing time: %.3fms alone → %.3fms with neighbour (%.2fx)\n",
		r.BeforeMs, r.AfterMs, r.AfterMs/r.BeforeMs)
	return b.String()
}

// CSV returns the E12 series.
func (r *InterferenceResult) CSV() [][]string {
	rows := [][]string{{"window", "neighbor_on", "fg_avg_exec_ms", "fg_co_exec_rate", "fg_node_busy"}}
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprint(p.Window), fmt.Sprint(p.NeighborOn),
			f(p.FgAvgExecMs), f(p.FgCoExecRate), f(p.FgNodeBusy),
		})
	}
	return rows
}

// RunInterference executes E12: Windowed URL Count runs alone on a small
// cluster; mid-run a second topology (a synthetic noisy neighbour) is
// submitted onto the same nodes. The foreground's multilevel statistics
// show processing time rising together with the machine-level co-location
// features — the exact signal the paper's interference-aware DRNN
// consumes.
func RunInterference(cfg InterferenceConfig) (*InterferenceResult, error) {
	cfg = cfg.withDefaults()
	cluster := dsps.NewCluster(dsps.ClusterConfig{
		Nodes:           1,
		CoresPerNode:    2,
		Seed:            cfg.Seed,
		AckTimeout:      30 * time.Second,
		QueueSize:       32,
		MaxSpoutPending: 64,
	})
	fg, _, _, err := urlcount.Build(urlcount.Config{
		ParseCost: 3 * time.Millisecond,
		CountCost: -1,
		Window:    2 * time.Second,
		Slide:     500 * time.Millisecond,
		Seed:      cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	if err := cluster.Submit(fg, dsps.SubmitConfig{Workers: 2}); err != nil {
		return nil, err
	}
	defer cluster.Shutdown()

	sampler := telemetry.NewSamplerFiltered(0, "parse")
	sampler.Sample(cluster.Snapshot())

	neighborAt := cfg.windows / 2
	result := &InterferenceResult{}
	var beforeSum, afterSum float64
	var beforeN, afterN int
	neighborOn := false
	for w := 0; w < cfg.windows; w++ {
		if w == neighborAt {
			noisy, err := buildNeighbor(cfg)
			if err != nil {
				return nil, err
			}
			if err := cluster.Submit(noisy, dsps.SubmitConfig{Workers: 2}); err != nil {
				return nil, err
			}
			neighborOn = true
		}
		time.Sleep(cfg.period)
		sampler.Sample(cluster.Snapshot())
		point := InterferencePoint{Window: w, NeighborOn: neighborOn}
		var execSum, coSum, busySum float64
		n := 0
		for _, id := range sampler.Workers() {
			wins := sampler.Series(id)
			if len(wins) == 0 {
				continue
			}
			last := wins[len(wins)-1]
			execSum += last.AvgExecMs
			coSum += last.CoExecRate
			busySum += last.NodeBusy
			n++
		}
		if n > 0 {
			point.FgAvgExecMs = execSum / float64(n)
			point.FgCoExecRate = coSum / float64(n)
			point.FgNodeBusy = busySum / float64(n)
		}
		if neighborOn {
			afterSum += point.FgAvgExecMs
			afterN++
		} else {
			beforeSum += point.FgAvgExecMs
			beforeN++
		}
		result.Points = append(result.Points, point)
	}
	if beforeN > 0 {
		result.BeforeMs = beforeSum / float64(beforeN)
	}
	if afterN > 0 {
		result.AfterMs = afterSum / float64(afterN)
	}
	return result, nil
}

// buildNeighbor assembles the noisy-neighbour topology: an unpaced spout
// driving a costly bolt.
func buildNeighbor(cfg InterferenceConfig) (*dsps.Topology, error) {
	emitted := 0
	var col dsps.SpoutCollector
	b := dsps.NewTopologyBuilder("noisy-neighbor")
	b.SetSpout("noise-src", func() dsps.Spout {
		return &dsps.SpoutFunc{
			OpenFn: func(_ dsps.TopologyContext, c dsps.SpoutCollector) { col = c },
			NextFn: func() bool {
				col.Emit(dsps.Values{emitted}, emitted)
				emitted++
				return true
			},
		}
	}, 1, "n")
	b.SetBolt("noise-work", func() dsps.Bolt { return &dsps.BoltFunc{} }, 2).
		ShuffleGrouping("noise-src").
		WithExecCost(neighborCost)
	return b.Build()
}
