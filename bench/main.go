// Command bench is the repository's benchmark: five named workloads, each
// run in its own process, measured from outside the layers (it times calls
// into their public functions, wraps their public interfaces in its own
// timing decorators and reads the public dsps.Snapshot counters).
//
//	bench -workload <name> -seed <n> [-seconds <s>] [-trace 0|1]
//	      [-trace-out spans.json] [-json results.json]
//	bench -compare a.json b.json
//
// It runs from the root of a checkout, where BENCHMARK.json declares its
// workloads and metrics. A run prints every metric it took, by name. The last line of standard
// output is one JSON object {"correct","attempted","failed","metrics"}
// holding the end-to-end metrics of an untraced run (-trace 0) or the
// per-layer metrics of a traced one (-trace 1); the exit code is non-zero
// when a correctness check fails. See README.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// processStart is as close to the start of the process as a Go program can
// read the clock; setup_s runs from here.
var processStart = time.Now()

// workloadFunc runs one workload and returns its result and, on a traced
// run, the spans it recorded.
type workloadFunc func(rc runConfig) (*result, []span, error)

var workloadFuncs = map[string]workloadFunc{
	wAppSaturate:  runAppSaturate,
	wAppPaced:     runAppPaced,
	wFleetFault:   runFleetFault,
	wServePredict: runServePredict,
	wTrainFit:     runTrainFit,
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if !errors.Is(err, flag.ErrHelp) {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		}
		os.Exit(1)
	}
}

// errIncorrect is returned when a run's correctness checks failed; its
// report has been printed all the same.
var errIncorrect = errors.New("correctness check failed")

func run(args []string, stdout io.Writer) error {
	m, err := loadManifest(manifestPath)
	if err != nil {
		return err
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload to run: app_saturate, app_paced, fleet_fault, serve_predict or train_fit")
	seed := fs.Int64("seed", 1, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", float64(m.RunSeconds), "measured time of the run")
	traced := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the recorded spans here as Chrome trace_event JSON")
	jsonOut := fs.String("json", "", "append this run to a results file (one schema for every workload)")
	compare := fs.Bool("compare", false, "compare two results files: bench -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare needs two results files")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	fn, ok := workloadFuncs[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traced)
	}
	rc := runConfig{m: m, start: processStart, workload: *workload, seed: *seed, seconds: *seconds, traced: *traced == 1, traceOut: *traceOut}
	fmt.Fprintf(stdout, "workload %s seed %d seconds %g trace %d GOMAXPROCS %d nproc %d %s\n",
		rc.workload, rc.seed, rc.seconds, *traced, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())

	res, spans, err := fn(rc)
	if err != nil {
		return fmt.Errorf("%s: %w", rc.workload, err)
	}
	if rc.traced && rc.traceOut != "" {
		if err := writeChromeTrace(rc.traceOut, rc.workload, spans); err != nil {
			return err
		}
		res.notef("%d spans written to %s", len(spans), rc.traceOut)
	}
	readings, err := res.selected(rc.traced)
	if err != nil {
		return err
	}
	if *jsonOut != "" {
		if err := appendRun(*jsonOut, rc, res); err != nil {
			return err
		}
	}
	res.printTable(stdout)
	line, err := res.contractLine(readings)
	if err != nil {
		return err
	}
	if _, err := fmt.Fprintln(stdout, line); err != nil {
		return err
	}
	if !res.correct() {
		return errIncorrect
	}
	return nil
}
