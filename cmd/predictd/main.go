// Command predictd is the prediction server: it loads a fitted DRNN
// checkpoint (or trains a small model on the synthetic trace for demos)
// and serves predictions over HTTP/JSON and an optional raw-TCP binary
// protocol. A request that finds the model idle is evaluated at once; those
// that arrive while it is busy are coalesced into the next micro-batch for
// the batched GEMM forward path. Admission is bounded with 429 shedding, and
// p50/p99 latency SLOs are exported on the observability /metrics endpoint
// as the predstream_serve_* families.
//
// Quickstart:
//
//	predict -save model.gob                # train a checkpoint
//	predictd -model model.gob -obs :9090   # serve it
//	curl -d '{"window": [[...], ...]}' localhost:8420/predict
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"predstream/internal/drnn"
	"predstream/internal/obs"
	"predstream/internal/serve"
	"predstream/internal/telemetry"
	"predstream/internal/trace"
	"predstream/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintf(os.Stderr, "predictd: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("predictd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8420", "HTTP address serving POST /predict and GET /healthz")
	tcpAddr := fs.String("tcp-addr", "", "also serve the raw-TCP binary protocol on this address")
	obsAddr := fs.String("obs", "", "serve /metrics, /healthz and /debug/pprof on this address (e.g. :9090)")
	modelPath := fs.String("model", "", "DRNN checkpoint to serve (from predict -save); empty trains a demo model on the synthetic trace")
	maxBatch := fs.Int("batch", 16, "largest micro-batch per forward pass")
	queue := fs.Int("queue", 256, "admission queue depth; overflow is shed with HTTP 429")
	duration := fs.Duration("duration", 0, "exit after this long (0 = run until SIGINT/SIGTERM)")
	steps := fs.Int("steps", 240, "synthetic training trace length in windows (demo model only)")
	epochs := fs.Int("epochs", 10, "training epochs for the demo model")
	seed := fs.Int64("seed", 1, "random seed for the demo model")
	if err := fs.Parse(args); err != nil {
		return err
	}

	p, err := loadOrTrain(stdout, *modelPath, *steps, *epochs, *seed)
	if err != nil {
		return err
	}
	inf, err := p.Inference(false)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "model ready: window %d, %d features\n", inf.Window(), inf.Features())

	var reg *obs.Registry
	if *obsAddr != "" {
		reg = obs.NewRegistry()
		reg.Register(obs.NewRuntimeCollector())
	}
	metrics := serve.NewMetrics(reg)
	coal := serve.NewCoalescer(inf, serve.Options{MaxBatch: *maxBatch, QueueDepth: *queue}, metrics)
	defer coal.Close()
	if reg != nil {
		reg.Register(coal)
		srv, err := obs.NewServer(*obsAddr, obs.ServerConfig{Registry: reg})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(stdout, "observability listening on %s (/metrics /debug/pprof)\n", srv.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: serve.Handler(coal)}
	httpErr := make(chan error, 1)
	go func() { httpErr <- httpSrv.Serve(ln) }()
	defer httpSrv.Close()
	fmt.Fprintf(stdout, "http listening on %s (POST /predict)\n", ln.Addr())

	if *tcpAddr != "" {
		tln, err := net.Listen("tcp", *tcpAddr)
		if err != nil {
			return err
		}
		tcpSrv := serve.ServeTCP(tln, coal)
		defer tcpSrv.Close()
		fmt.Fprintf(stdout, "tcp listening on %s (binary protocol)\n", tcpSrv.Addr())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(stop)
	var deadline <-chan time.Time
	if *duration > 0 {
		t := time.NewTimer(*duration)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case sig := <-stop:
		fmt.Fprintf(stdout, "received %s, shutting down\n", sig)
	case <-deadline:
		fmt.Fprintln(stdout, "duration elapsed, shutting down")
	case err := <-httpErr:
		return fmt.Errorf("http server: %w", err)
	}
	return nil
}

// loadOrTrain loads the checkpoint at path, or fits a small demo model on
// the deterministic synthetic trace when path is empty.
func loadOrTrain(stdout io.Writer, path string, steps, epochs int, seed int64) (*drnn.Predictor, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		p, err := drnn.Load(f)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(stdout, "loaded checkpoint %s (%d parameters)\n", path, p.NumParams())
		return p, nil
	}
	fmt.Fprintf(stdout, "no -model given; training a demo model on the synthetic trace (%d windows, %d epochs)\n", steps, epochs)
	traces := trace.Synthetic(trace.SyntheticConfig{
		Workers: 4, Nodes: 2, Cores: 4, BaseMs: 1.0,
		Shape: workload.SinusoidRate{Base: 900, Amplitude: 500, Period: 50 * time.Second},
		Steps: steps, Seed: seed,
	})
	series := telemetry.ToSeries(traces["worker-0"], telemetry.TargetProcTime,
		telemetry.FeatureConfig{Interference: true})
	p := drnn.New(drnn.Config{Epochs: epochs, Seed: seed})
	if err := p.Fit(series); err != nil {
		return nil, err
	}
	return p, nil
}
