// Command experiments regenerates the paper's evaluation: each subcommand
// prints the rows/series behind one reconstructed table or figure
// (E1..E13, see DESIGN.md), and `all` runs the full suite. With -out DIR
// each experiment's series is also written as a plot-ready CSV.
//
// Usage:
//
//	experiments <e1|…|e13|all> [flags]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"predstream/internal/experiments"
	"predstream/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) < 1 {
		usage(stderr)
		return fmt.Errorf("missing subcommand")
	}
	cmd := args[0]
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	steps := fs.Int("steps", 500, "trace length in measurement windows (accuracy experiments)")
	epochs := fs.Int("epochs", 40, "DRNN training epochs")
	seed := fs.Int64("seed", 1, "random seed")
	horizon := fs.Int("horizon", 1, "forecast horizon in windows")
	workers := fs.Int("workers", 0, "DRNN training workers per mini-batch (0 = all CPUs; results are worker-count invariant)")
	measure := fs.Duration("measure", 3*time.Second, "measurement interval (reliability)")
	warmup := fs.Duration("warmup", 2*time.Second, "warmup before measurement (reliability)")
	outDir := fs.String("out", "", "also write each experiment's series as CSV into this directory")
	obsAddr := fs.String("obs", "", "serve /metrics (Go runtime), /healthz and /debug/pprof on this address while the suite runs (e.g. :9090)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *obsAddr != "" {
		reg := obs.NewRegistry()
		reg.Register(obs.NewRuntimeCollector())
		srv, err := obs.NewServer(*obsAddr, obs.ServerConfig{Registry: reg})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "observability listening on %s (/metrics /healthz /debug/pprof)\n", srv.Addr())
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	acc := experiments.AccuracyConfig{Steps: *steps, Epochs: *epochs, Seed: *seed, Horizon: *horizon, Workers: *workers}

	type csver interface{ CSV() [][]string }
	runOne := func(name string) error {
		fmt.Fprintf(stdout, "=== %s ===\n", name)
		start := time.Now()
		var err error
		var result csver
		switch name {
		case "e1":
			var r *experiments.AccuracyResult
			acc1 := acc
			acc1.App = experiments.AppURLCount
			if r, err = experiments.RunAccuracy(acc1); err == nil {
				result = r
				fmt.Fprint(stdout, r.Render())
			}
		case "e2":
			var r *experiments.AccuracyResult
			acc2 := acc
			acc2.App = experiments.AppContQuery
			if r, err = experiments.RunAccuracy(acc2); err == nil {
				result = r
				fmt.Fprint(stdout, r.Render())
			}
		case "e3":
			var r *experiments.OverlayResult
			if r, err = experiments.RunOverlay(acc); err == nil {
				result = r
				fmt.Fprint(stdout, r.Render())
			}
		case "e4":
			var r *experiments.AblationResult
			if r, err = experiments.RunAblation(*steps, *epochs, *seed, *workers); err == nil {
				result = r
				fmt.Fprint(stdout, r.Render())
			}
		case "e5":
			var r *experiments.GroupingResult
			if r, err = experiments.RunGrouping(experiments.GroupingConfig{}); err == nil {
				result = r
				fmt.Fprint(stdout, r.Render())
			}
		case "e6", "e7":
			// E6 (throughput) and E7 (latency) come from the same runs;
			// the table carries both columns.
			var r *experiments.ReliabilityResult
			if r, err = experiments.RunReliability(experiments.ReliabilityConfig{
				Warmup: *warmup, Measure: *measure, Seed: *seed,
			}); err == nil {
				result = r
				fmt.Fprint(stdout, r.Render())
			}
		case "e6s":
			// Stall variant: the misbehaving worker hangs completely; one
			// task per worker so only the controllable parse stage is hit.
			var r *experiments.ReliabilityResult
			if r, err = experiments.RunReliability(experiments.ReliabilityConfig{
				Misbehaving: []int{0, 1},
				Stall:       true,
				Workers:     10,
				Warmup:      *warmup, Measure: *measure, Seed: *seed,
			}); err == nil {
				result = r
				fmt.Fprint(stdout, r.Render())
			}
		case "e8":
			var r *experiments.ConvergenceResult
			if r, err = experiments.RunConvergence(acc); err == nil {
				result = r
				fmt.Fprint(stdout, r.Render())
			}
		case "e9":
			var r *experiments.SensitivityResult
			if r, err = experiments.RunSensitivity(acc, nil, nil); err == nil {
				result = r
				fmt.Fprint(stdout, r.Render())
			}
		case "e10":
			var r *experiments.ReactionResult
			if r, err = experiments.RunReaction(experiments.ReactionConfig{Seed: *seed}); err == nil {
				result = r
				fmt.Fprint(stdout, r.Render())
			}
		case "e10r":
			// Recovery variant: the fault clears mid-run and the probe
			// share lets the controller re-admit the worker.
			var r *experiments.ReactionResult
			if r, err = experiments.RunReaction(experiments.ReactionConfig{
				Seed: *seed, Steps: 24, FaultAtStep: 6, ClearAtStep: 14, ProbeRatio: 0.05,
			}); err == nil {
				result = r
				fmt.Fprint(stdout, r.Render())
			}
		case "e11":
			var r *experiments.PolicyAblationResult
			if r, err = experiments.RunPolicyAblation(experiments.ReliabilityConfig{
				Warmup: *warmup, Measure: *measure, Seed: *seed,
			}); err == nil {
				result = r
				fmt.Fprint(stdout, r.Render())
			}
		case "e12":
			var r *experiments.InterferenceResult
			if r, err = experiments.RunInterference(experiments.InterferenceConfig{Seed: *seed}); err == nil {
				result = r
				fmt.Fprint(stdout, r.Render())
			}
		case "e13":
			var r *experiments.ElasticResult
			if r, err = experiments.RunElastic(experiments.ElasticConfig{
				Warmup: *warmup, Seed: *seed,
			}); err == nil {
				result = r
				fmt.Fprint(stdout, r.Render())
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		if err != nil {
			return err
		}
		if *outDir != "" && result != nil {
			path := filepath.Join(*outDir, name+".csv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := experiments.WriteCSV(f, result.CSV()); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "(series written to %s)\n", path)
		}
		fmt.Fprintf(stdout, "(%s in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
		return nil
	}

	names := []string{cmd}
	if cmd == "all" {
		names = []string{"e1", "e2", "e3", "e4", "e5", "e6", "e6s", "e8", "e9", "e10", "e10r", "e11", "e12", "e13"}
	}
	for _, n := range names {
		if err := runOne(n); err != nil {
			return err
		}
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `usage: experiments <subcommand> [flags]

subcommands:
  e1    prediction accuracy, Windowed URL Count (DRNN vs ARIMA vs SVR)
  e2    prediction accuracy, Continuous Queries
  e3    predicted-vs-actual overlay of the best model
  e4    DRNN ablation: interference features and depth
  e5    dynamic grouping validation (requested vs observed splits)
  e6    throughput under misbehaving workers (framework vs static)
  e7    latency under misbehaving workers (same runs as e6)
  e6s   stall variant of e6 (hung worker; stall channel + re-routing)
  e8    DRNN training convergence
  e9    accuracy sensitivity to window size and horizon
  e10   control-loop reaction trace around a fault
  e10r  reaction trace with mid-run recovery and probe-based re-admission
  e11   planner policy ablation (bypass vs weighted vs uniform)
  e12   cross-topology co-location interference trace
  e13   elastic vs static parallelism under diurnal and flash-crowd load
  all   run the full suite`)
}
