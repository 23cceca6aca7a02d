package experiments

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"predstream/internal/core"
	"predstream/internal/scenario"
	"predstream/internal/workload"
)

// ElasticConfig parameterizes E13: static vs elastic parallelism under
// time-varying load. Both systems run the URL-count topology with the
// dynamic grouping and a uniform-policy controller; the elastic system
// additionally lets the planner emit scale actions, so the measured gap
// isolates live parallelism changes from the split-vector machinery.
type ElasticConfig struct {
	// Warmup runs before measurement; default 1s.
	Warmup time.Duration
	// Seed drives the workload.
	Seed int64

	// shapes lists the load shapes to test; default {"diurnal",
	// "flash-crowd"}. Tests run one.
	shapes []string
	// measure is the measurement interval; default 8s (long enough for
	// at least one full diurnal period / two flash crowds). Tests shorten
	// it.
	measure time.Duration
}

// The E13 setup.
const (
	// elasticBaseTPS is the off-peak arrival rate.
	elasticBaseTPS = 250
	// elasticParseTasks is the static stage parallelism and the elastic
	// starting point: each 5ms-cost task serves ~200 tuples/s, so peaks
	// above 2×200 overload the static configuration.
	elasticParseTasks = 2
	// elasticMaxParallelism caps elastic scale-ups.
	elasticMaxParallelism = 6
	// elasticControlPeriod is the controller step period.
	elasticControlPeriod = 250 * time.Millisecond
)

func (c ElasticConfig) withDefaults() ElasticConfig {
	if len(c.shapes) == 0 {
		c.shapes = []string{"diurnal", "flash-crowd"}
	}
	if c.Warmup <= 0 {
		c.Warmup = time.Second
	}
	if c.measure <= 0 {
		c.measure = 8 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// shapeFor builds the arrival-rate shape for one E13 scenario, scaled so
// the peak exceeds the static stage capacity while the trough idles it.
func (c ElasticConfig) shapeFor(name string) (workload.RateShape, error) {
	switch name {
	case "diurnal":
		return workload.SinusoidRate{
			Base:      elasticBaseTPS,
			Amplitude: 0.8 * elasticBaseTPS,
			Period:    c.measure / 2,
		}, nil
	case "flash-crowd":
		return workload.BurstRate{
			Base:     0.6 * elasticBaseTPS,
			BurstX:   4,
			Period:   c.measure / 2,
			Duration: c.measure / 8,
		}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown load shape %q", name)
	}
}

// ElasticCell is one (system, shape) measurement of E13.
type ElasticCell struct {
	System string // "static" or "elastic"
	Shape  string
	scenario.Summary
}

// ElasticResult is the E13 matrix.
type ElasticResult struct {
	Cells []ElasticCell
}

// Cell returns the measurement for one (system, shape) pair.
func (r *ElasticResult) Cell(system, shape string) (ElasticCell, bool) {
	for _, c := range r.Cells {
		if c.System == system && c.Shape == shape {
			return c, true
		}
	}
	return ElasticCell{}, false
}

// Render prints the E13 table.
func (r *ElasticResult) Render() string {
	var b strings.Builder
	b.WriteString("Elastic vs static parallelism under time-varying load — Windowed URL Count\n")
	fmt.Fprintf(&b, "  %-9s %-12s %12s %12s %10s %9s %5s %5s %5s\n",
		"system", "shape", "acked/s", "latency(ms)", "p99(ms)", "failed/s", "ups", "downs", "par")
	for _, c := range r.Cells {
		fmt.Fprintf(&b, "  %-9s %-12s %12.0f %12.2f %10.1f %9.1f %5d %5d %5d\n",
			c.System, c.Shape, c.ThroughputTPS, c.AvgLatencyMs, c.P99LatencyMs, c.FailedTPS,
			c.ScaleUps, c.ScaleDowns, c.FinalParallelism)
	}
	for _, el := range r.Cells {
		st, ok := r.Cell("static", el.Shape)
		if el.System == "elastic" && ok && st.P99LatencyMs > 0 {
			fmt.Fprintf(&b, "  %s: elastic p99 is %.1f%% of static\n",
				el.Shape, 100*el.P99LatencyMs/st.P99LatencyMs)
		}
	}
	return b.String()
}

// CSV renders the E13 series.
func (r *ElasticResult) CSV() [][]string {
	rows := [][]string{{"system", "shape", "throughput_tps", "avg_latency_ms", "p99_latency_ms", "failed_tps", "scale_ups", "scale_downs", "final_parallelism"}}
	for _, c := range r.Cells {
		rows = append(rows, []string{
			c.System, c.Shape,
			fmt.Sprintf("%.1f", c.ThroughputTPS),
			fmt.Sprintf("%.3f", c.AvgLatencyMs),
			fmt.Sprintf("%.2f", c.P99LatencyMs),
			fmt.Sprintf("%.2f", c.FailedTPS),
			strconv.FormatInt(c.ScaleUps, 10),
			strconv.FormatInt(c.ScaleDowns, 10),
			strconv.Itoa(c.FinalParallelism),
		})
	}
	return rows
}

// RunElastic executes E13: for each load shape it measures the static
// configuration (parallelism pinned at elasticParseTasks) and the elastic
// one (the planner scales the parse stage between 1 and
// elasticMaxParallelism from occupancy and the last window, as the
// controller runs with no predictor), comparing throughput,
// complete-latency p99, and loss.
func RunElastic(cfg ElasticConfig) (*ElasticResult, error) {
	cfg = cfg.withDefaults()
	result := &ElasticResult{}
	for _, name := range cfg.shapes {
		shape, err := cfg.shapeFor(name)
		if err != nil {
			return nil, err
		}
		for _, system := range []string{"static", "elastic"} {
			control := &core.Config{Policy: core.PolicyUniform}
			if system == "elastic" {
				control.Scale = &core.ScaleConfig{
					MinParallelism: 1,
					MaxParallelism: elasticMaxParallelism,
					UpOccupancy:    0.25,
					UpWindows:      2,
					DownWindows:    8,
					Cooldown:       3 * elasticControlPeriod,
					DrainTimeout:   time.Second,
				}
			}
			res, err := scenario.Run(scenario.Spec{
				Seed:       cfg.Seed,
				Shape:      shape,
				ParseTasks: elasticParseTasks,
				// A higher spout-pending cap than E6's lets overload show
				// as complete latency while still bounding the backlog.
				MaxSpoutPending: 512,
				Period:          elasticControlPeriod,
				Warmup:          cfg.Warmup,
				Measure:         cfg.measure,
				Control:         control,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: %s under %s: %w", system, name, err)
			}
			result.Cells = append(result.Cells, ElasticCell{system, name, res.Summary})
		}
	}
	return result, nil
}
