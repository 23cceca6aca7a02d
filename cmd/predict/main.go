// Command predict trains and evaluates the performance predictors (DRNN,
// ARIMA, SVR, persistence) on a multilevel-statistics trace and prints the
// accuracy table. Traces come from the deterministic queueing-model
// generator by default, or from a live engine run of one of the two
// evaluation applications with -live.
//
// A fitted DRNN can be checkpointed with -save and reloaded with -load for
// evaluation only.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"predstream/internal/apps/contquery"
	"predstream/internal/apps/urlcount"
	"predstream/internal/arima"
	"predstream/internal/drnn"
	"predstream/internal/dsps"
	"predstream/internal/obs"
	"predstream/internal/stats"
	"predstream/internal/svr"
	"predstream/internal/telemetry"
	"predstream/internal/timeseries"
	"predstream/internal/trace"
	"predstream/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintf(os.Stderr, "predict: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("predict", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "urlcount", "workload profile: urlcount or contquery")
	steps := fs.Int("steps", 500, "trace length in measurement windows")
	window := fs.Int("window", 10, "model input window")
	horizon := fs.Int("horizon", 1, "forecast horizon")
	epochs := fs.Int("epochs", 40, "DRNN training epochs")
	seed := fs.Int64("seed", 1, "random seed")
	worker := fs.String("worker", "", "worker whose series to predict (default: first)")
	live := fs.Bool("live", false, "collect the trace from a live engine run instead of the synthetic generator")
	livePeriod := fs.Duration("live-period", 250*time.Millisecond, "live sampling period")
	target := fs.String("target", "proctime", "prediction target: proctime or throughput")
	noInterference := fs.Bool("no-interference", false, "drop co-located-worker features")
	cell := fs.String("cell", "lstm", "DRNN recurrent cell: lstm or gru")
	batch := fs.Int("batch", 0, "DRNN mini-batch size (0/1 = pure SGD)")
	workers := fs.Int("workers", 0, "DRNN training workers per mini-batch (0 = all CPUs; results are worker-count invariant)")
	sarimaPeriod := fs.Int("sarima-period", 0, "also compare a SARIMA(1,0,1)(1,0,0)_s baseline at this seasonal period")
	allWorkers := fs.Bool("all-workers", false, "evaluate over every worker's series, pooling the walk-forward residuals")
	savePath := fs.String("save", "", "write the fitted DRNN checkpoint to this path")
	loadPath := fs.String("load", "", "load a DRNN checkpoint instead of training")
	traceOut := fs.String("trace-out", "", "archive the trace to this CSV path")
	traceIn := fs.String("trace-in", "", "read the trace from this CSV path instead of generating/collecting")
	obsAddr := fs.String("obs", "", "serve /metrics, /healthz and /debug/pprof on this address (with -live also the engine metrics; e.g. :9090)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var obsReg *obs.Registry
	if *obsAddr != "" {
		obsReg = obs.NewRegistry()
		obsReg.Register(obs.NewRuntimeCollector())
		srv, err := obs.NewServer(*obsAddr, obs.ServerConfig{Registry: obsReg})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "observability listening on %s (/metrics /healthz /debug/pprof)\n", srv.Addr())
	}

	metric := telemetry.TargetProcTime
	if *target == "throughput" {
		metric = telemetry.TargetThroughput
	} else if *target != "proctime" {
		return fmt.Errorf("unknown target %q", *target)
	}
	featCfg := telemetry.FeatureConfig{Interference: !*noInterference}

	var traces map[string][]telemetry.WindowStats
	var err error
	switch {
	case *traceIn != "":
		f, ferr := os.Open(*traceIn)
		if ferr != nil {
			return ferr
		}
		traces, err = trace.ReadCSV(f)
		f.Close()
	case *live:
		traces, err = collectLive(stdout, *app, *steps, *livePeriod, *seed, obsReg)
	default:
		traces, err = synthetic(*app, *steps, *seed)
	}
	if err != nil {
		return err
	}
	if *traceOut != "" {
		f, ferr := os.Create(*traceOut)
		if ferr != nil {
			return ferr
		}
		if err := trace.WriteCSV(f, traces); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "archived trace to %s\n", *traceOut)
	}
	id := *worker
	if id == "" {
		for _, w := range sortedKeys(traces) {
			id = w
			break
		}
	}
	wins, ok := traces[id]
	if !ok {
		return fmt.Errorf("no trace for worker %q (have %v)", id, sortedKeys(traces))
	}
	fmt.Fprintf(stdout, "trace: %d windows for %s (%s, live=%v), target %s, interference=%v\n",
		len(wins), id, *app, *live, metric, featCfg.Interference)

	series := telemetry.ToSeries(wins, metric, featCfg)
	trainLen := series.Len() * 7 / 10

	model := drnn.New(drnn.Config{
		Window: *window, Horizon: *horizon, Epochs: *epochs, Seed: *seed, Cell: *cell,
		BatchSize: *batch, Workers: *workers,
	})
	models := []timeseries.Predictor{model}
	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			return err
		}
		loaded, err := drnn.Load(f)
		f.Close()
		if err != nil {
			return err
		}
		// Evaluate the checkpoint directly on the held-out span.
		return evalCheckpoint(stdout, loaded, series, trainLen, *horizon)
	}
	factories := []func() timeseries.Predictor{
		func() timeseries.Predictor {
			return drnn.New(drnn.Config{
				Window: *window, Horizon: *horizon, Epochs: *epochs, Seed: *seed, Cell: *cell,
				BatchSize: *batch, Workers: *workers,
			})
		},
		func() timeseries.Predictor { return arima.New(3, 0, 1) },
		func() timeseries.Predictor {
			return svr.NewWindowPredictor(*window, *horizon, &svr.SVR{C: 10, Eps: 0.05, MaxIter: 200})
		},
		func() timeseries.Predictor { return &timeseries.NaivePredictor{} },
	}
	if *sarimaPeriod > 1 {
		factories = append(factories, func() timeseries.Predictor {
			return arima.NewSeasonal(1, 0, 1, 1, 0, *sarimaPeriod)
		})
	}

	if *allWorkers {
		// Pool every worker's walk-forward residuals per model; each
		// worker gets its own freshly fitted model instance.
		type pooled struct{ actual, pred []float64 }
		byModel := map[string]*pooled{}
		var modelOrder []string
		workersList := sortedKeys(traces)
		for _, wid := range workersList {
			ws := telemetry.ToSeries(traces[wid], metric, featCfg)
			tl := ws.Len() * 7 / 10
			for _, mk := range factories {
				m := mk()
				res, err := timeseries.WalkForward(m, ws, tl, *horizon)
				if err != nil {
					return fmt.Errorf("worker %s model %s: %w", wid, m.Name(), err)
				}
				p := byModel[m.Name()]
				if p == nil {
					p = &pooled{}
					byModel[m.Name()] = p
					modelOrder = append(modelOrder, m.Name())
				}
				p.actual = append(p.actual, res.Actual...)
				p.pred = append(p.pred, res.Predicted...)
			}
		}
		fmt.Fprintf(stdout, "pooled walk-forward over %d workers:\n", len(workersList))
		for _, name := range modelOrder {
			p := byModel[name]
			fmt.Fprintf(stdout, "  %s\n", stats.Evaluate(name, p.actual, p.pred))
		}
		return nil
	}

	models = append(models,
		arima.New(3, 0, 1),
		svr.NewWindowPredictor(*window, *horizon, &svr.SVR{C: 10, Eps: 0.05, MaxIter: 200}),
		&timeseries.NaivePredictor{},
	)
	if *sarimaPeriod > 1 {
		models = append(models, arima.NewSeasonal(1, 0, 1, 1, 0, *sarimaPeriod))
	}
	results, err := timeseries.Compare(models, series, trainLen, *horizon)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "walk-forward over %d held-out windows (train %d):\n", len(results[0].Actual), trainLen)
	for _, r := range results {
		fmt.Fprintf(stdout, "  %s\n", r.Report)
	}
	if *savePath != "" {
		f, err := os.Create(*savePath)
		if err != nil {
			return err
		}
		if err := model.Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "saved DRNN checkpoint (%d params) to %s\n", model.NumParams(), *savePath)
	}
	return nil
}

func evalCheckpoint(stdout io.Writer, model *drnn.Predictor, series *timeseries.Series, trainLen, horizon int) error {
	var actual, pred []float64
	for i := trainLen; i+horizon-1 < series.Len(); i++ {
		v, err := model.Predict(series.Slice(0, i), horizon)
		if err != nil {
			return err
		}
		pred = append(pred, v)
		actual = append(actual, series.Points[i+horizon-1].Target)
	}
	fmt.Fprintf(stdout, "checkpoint evaluation over %d windows:\n", len(actual))
	fmt.Fprintf(stdout, "  %s\n", stats.Evaluate("DRNN(ckpt)", actual, pred))
	return nil
}

func synthetic(app string, steps int, seed int64) (map[string][]telemetry.WindowStats, error) {
	switch app {
	case "urlcount":
		return trace.Synthetic(trace.SyntheticConfig{
			Workers: 4, Nodes: 2, BaseMs: 1,
			Shape: workload.SinusoidRate{Base: 900, Amplitude: 500, Period: 50 * time.Second},
			Steps: steps, Seed: seed,
		}), nil
	case "contquery":
		return trace.Synthetic(trace.SyntheticConfig{
			Workers: 4, Nodes: 2, BaseMs: 2,
			Shape: workload.BurstRate{Base: 400, BurstX: 3, Period: 20 * time.Second, Duration: 5 * time.Second},
			Steps: steps, Seed: seed,
		}), nil
	default:
		return nil, fmt.Errorf("unknown app %q", app)
	}
}

// collectLive runs the app on a live cluster and samples per-worker
// windows; when reg is non-nil the cluster's metrics join the /metrics
// page for the duration of the collection.
func collectLive(stdout io.Writer, app string, windows int, period time.Duration, seed int64, reg *obs.Registry) (map[string][]telemetry.WindowStats, error) {
	var topo *dsps.Topology
	var err error
	var stage string
	switch app {
	case "urlcount":
		topo, _, _, err = urlcount.Build(urlcount.Config{
			Shape: workload.SinusoidRate{Base: 2000, Amplitude: 1200, Period: 30 * time.Second},
			Seed:  seed,
		})
		stage = "parse"
	case "contquery":
		topo, _, _, err = contquery.Build(contquery.Config{
			Shape: workload.BurstRate{Base: 1000, BurstX: 3, Period: 10 * time.Second, Duration: 3 * time.Second},
			Seed:  seed,
		})
		stage = "query"
	default:
		return nil, fmt.Errorf("unknown app %q", app)
	}
	if err != nil {
		return nil, err
	}
	cluster := dsps.NewCluster(dsps.ClusterConfig{Nodes: 2, Seed: seed})
	if err := cluster.Submit(topo, dsps.SubmitConfig{Workers: 4}); err != nil {
		return nil, err
	}
	defer cluster.Shutdown()
	fmt.Fprintf(stdout, "collecting %d live windows every %v from %q stage %s…\n", windows, period, app, stage)
	sampler := telemetry.NewSamplerFiltered(0, stage)
	if reg != nil {
		reg.Register(obs.NewClusterCollector(cluster))
		reg.Register(obs.NewSamplerCollector(sampler))
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for i := 0; i <= windows; i++ {
		sampler.Sample(cluster.Snapshot())
		if i < windows {
			<-ticker.C
		}
	}
	out := map[string][]telemetry.WindowStats{}
	for _, id := range sampler.Workers() {
		out[id] = sampler.Series(id)
	}
	return out, nil
}

func sortedKeys(m map[string][]telemetry.WindowStats) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	for i := 0; i < len(out); i++ {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}
