package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"predstream/internal/apps/urlcount"
	"predstream/internal/core"
	"predstream/internal/dsps"
	"predstream/internal/workload"
)

// ElasticConfig parameterizes E13: static vs elastic parallelism under
// time-varying load. Both systems run the URL-count topology with the
// dynamic grouping and a uniform-policy controller; the elastic system
// additionally lets the planner emit scale actions, so the measured gap
// isolates live parallelism changes from the split-vector machinery.
type ElasticConfig struct {
	// Shapes lists the load shapes to test; default {"diurnal",
	// "flash-crowd"}.
	Shapes []string
	// BaseTPS is the off-peak arrival rate; default 250.
	BaseTPS float64
	// ParseTasks is the static stage parallelism and the elastic starting
	// point; default 2 (each 5ms-cost task serves ~200 tuples/s, so peaks
	// above 2×200 overload the static configuration).
	ParseTasks int
	// MaxParallelism caps elastic scale-ups; default 6.
	MaxParallelism int
	// Warmup runs before measurement; default 1s.
	Warmup time.Duration
	// Measure is the measurement interval; default 8s (long enough for at
	// least one full diurnal period / two flash crowds).
	Measure time.Duration
	// ControlPeriod is the controller step period; default 250ms.
	ControlPeriod time.Duration
	// Workers is the worker-process count; default 4.
	Workers int
	// Seed drives the workload.
	Seed int64
}

func (c ElasticConfig) withDefaults() ElasticConfig {
	if len(c.Shapes) == 0 {
		c.Shapes = []string{"diurnal", "flash-crowd"}
	}
	if c.BaseTPS <= 0 {
		c.BaseTPS = 250
	}
	if c.ParseTasks <= 0 {
		c.ParseTasks = 2
	}
	if c.MaxParallelism <= 0 {
		c.MaxParallelism = 6
	}
	if c.Warmup <= 0 {
		c.Warmup = time.Second
	}
	if c.Measure <= 0 {
		c.Measure = 8 * time.Second
	}
	if c.ControlPeriod <= 0 {
		c.ControlPeriod = 250 * time.Millisecond
	}
	if c.Workers <= 0 {
		c.Workers = 4
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
			Base:      c.BaseTPS,
			Amplitude: 0.8 * c.BaseTPS,
			Period:    c.Measure / 2,
		}, nil
	case "flash-crowd":
		return workload.BurstRate{
			Base:     0.6 * c.BaseTPS,
			BurstX:   4,
			Period:   c.Measure / 2,
			Duration: c.Measure / 8,
		}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown load shape %q", name)
	}
}

// ElasticCell is one (system, shape) measurement of E13.
type ElasticCell struct {
	System string // "static" or "elastic"
	Shape  string
	// ThroughputTPS is acked roots per second over the interval.
	ThroughputTPS float64
	// AvgLatencyMs / P99LatencyMs summarize complete latency during the
	// interval (from histogram deltas).
	AvgLatencyMs float64
	P99LatencyMs float64
	// FailedTPS is failed roots per second (loss).
	FailedTPS float64
	// ScaleUps and ScaleDowns count executors added/retired during the run.
	ScaleUps   int64
	ScaleDowns int64
	// FinalParallelism is the parse-stage executor count at measurement end.
	FinalParallelism int
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
	for _, shape := range shapesOf(r.Cells) {
		st, ok1 := r.Cell("static", shape)
		el, ok2 := r.Cell("elastic", shape)
		if ok1 && ok2 && st.P99LatencyMs > 0 {
			fmt.Fprintf(&b, "  %s: elastic p99 is %.1f%% of static\n",
				shape, 100*el.P99LatencyMs/st.P99LatencyMs)
		}
	}
	return b.String()
}

func shapesOf(cells []ElasticCell) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range cells {
		if !seen[c.Shape] {
			seen[c.Shape] = true
			out = append(out, c.Shape)
		}
	}
	return out
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
// configuration (parallelism pinned at ParseTasks) and the elastic one
// (the planner scales the parse stage between 1 and MaxParallelism from
// occupancy + forecast signals), comparing throughput, complete-latency
// p99, and loss.
func RunElastic(cfg ElasticConfig) (*ElasticResult, error) {
	cfg = cfg.withDefaults()
	result := &ElasticResult{}
	for _, shape := range cfg.Shapes {
		for _, system := range []string{"static", "elastic"} {
			cell, err := runElasticCell(cfg, system, shape)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s under %s: %w", system, shape, err)
			}
			result.Cells = append(result.Cells, cell)
		}
	}
	return result, nil
}

func runElasticCell(cfg ElasticConfig, system, shapeName string) (ElasticCell, error) {
	cell := ElasticCell{System: system, Shape: shapeName}
	shape, err := cfg.shapeFor(shapeName)
	if err != nil {
		return cell, err
	}
	topo, _, dg, err := urlcount.Build(urlcount.Config{
		Dynamic: true,
		Shape:   shape,
		// Parse dominates (5ms clears the sleep-granularity floor); count
		// is free so the scalable stage is the bottleneck.
		ParseCost:  5 * time.Millisecond,
		CountCost:  -1,
		ParseTasks: cfg.ParseTasks,
		Window:     2 * time.Second,
		Slide:      500 * time.Millisecond,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return cell, err
	}
	ccfg := dsps.ClusterConfig{
		Nodes:        2,
		CoresPerNode: 4,
		Seed:         cfg.Seed,
		AckTimeout:   10 * time.Second,
		// Shallow queues surface overload as complete latency quickly; the
		// spout-pending cap bounds in-flight so the backlog stays honest.
		QueueSize:       64,
		MaxSpoutPending: 512,
	}
	cluster := dsps.NewCluster(ccfg)
	if err := cluster.Submit(topo, dsps.SubmitConfig{Workers: cfg.Workers}); err != nil {
		return cell, err
	}
	defer cluster.Shutdown()

	ctrlCfg := core.Config{Policy: core.PolicyUniform}
	if system == "elastic" {
		ctrlCfg.Scale = &core.ScaleConfig{
			MinParallelism: 1,
			MaxParallelism: cfg.MaxParallelism,
			UpOccupancy:    0.25,
			UpWindows:      2,
			DownWindows:    8,
			Cooldown:       3 * cfg.ControlPeriod,
			DrainTimeout:   time.Second,
		}
	}
	ctrl, err := core.NewController(cluster,
		[]core.ControlTarget{{Component: "parse", Grouping: dg}},
		ctrlCfg)
	if err != nil {
		return cell, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = ctrl.Run(ctx, cfg.ControlPeriod) }()

	time.Sleep(cfg.Warmup)
	before := cluster.Snapshot()
	time.Sleep(cfg.Measure)
	after := cluster.Snapshot()
	cancel()

	dt := after.At.Sub(before.At).Seconds()
	acked := after.TotalAcked() - before.TotalAcked()
	failed := after.TotalFailed() - before.TotalFailed()
	cell.ThroughputTPS = float64(acked) / dt
	cell.FailedTPS = float64(failed) / dt
	if acked > 0 {
		var latDelta time.Duration
		var histDelta []int64
		for _, ts := range after.Tasks {
			if !ts.IsSpout {
				continue
			}
			prev, _ := before.TaskByID(ts.TaskID)
			latDelta += ts.CompleteLatency - prev.CompleteLatency
			if len(ts.CompleteHist) > 0 {
				diff := make([]int64, len(ts.CompleteHist))
				for i := range diff {
					diff[i] = ts.CompleteHist[i]
					if i < len(prev.CompleteHist) {
						diff[i] -= prev.CompleteHist[i]
					}
				}
				histDelta = dsps.MergeHistograms(histDelta, diff)
			}
		}
		cell.AvgLatencyMs = latDelta.Seconds() * 1000 / float64(acked)
		cell.P99LatencyMs = dsps.HistogramQuantile(histDelta, 0.99).Seconds() * 1000
	}
	for _, sc := range after.Scale {
		cell.ScaleUps += sc.Ups
		cell.ScaleDowns += sc.Downs
	}
	cell.FinalParallelism = cluster.ComponentParallelism(topo.Name, "parse")
	return cell, nil
}
