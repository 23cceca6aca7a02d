package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"predstream/internal/drnn"
	"predstream/internal/serve"
	"predstream/internal/telemetry"
	"predstream/internal/trace"
	"predstream/internal/workload"
)

// syncBuffer lets the test read run()'s output while it is still running.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestRunHelp(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-h"}, &out, &errOut); err != flag.ErrHelp {
		t.Fatalf("-h error = %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(errOut.String(), "-model") {
		t.Fatal("usage text missing -model flag")
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errOut bytes.Buffer
	if err := run([]string{"-definitely-not-a-flag"}, &out, &errOut); err == nil {
		t.Fatal("expected flag error")
	}
}

func TestRunMissingModel(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-model", filepath.Join(t.TempDir(), "nope.gob")}, &out, &errOut)
	if err == nil {
		t.Fatal("expected missing-checkpoint error")
	}
}

// saveCheckpoint trains the smallest usable model and writes it to disk.
func saveCheckpoint(t *testing.T) string {
	t.Helper()
	traces := trace.Synthetic(trace.SyntheticConfig{
		Workers: 2, Nodes: 1, Cores: 4, BaseMs: 1.0,
		Shape: workload.SinusoidRate{Base: 900, Amplitude: 500, Period: 50 * time.Second},
		Steps: 120, Seed: 1,
	})
	series := telemetry.ToSeries(traces["worker-0"], telemetry.TargetProcTime,
		telemetry.FeatureConfig{Interference: true})
	p := drnn.New(drnn.Config{Hidden: []int{8}, DenseHidden: []int{4}, Epochs: 2, Seed: 1})
	if err := p.Fit(series); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return path
}

var addrRe = regexp.MustCompile(`(\w+) listening on (\S+)`)

// waitAddrs polls the output buffer for "<name> listening on <addr>"
// lines until every wanted name appeared.
func waitAddrs(t *testing.T, out *syncBuffer, names ...string) map[string]string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		got := map[string]string{}
		for _, m := range addrRe.FindAllStringSubmatch(out.String(), -1) {
			got[m[1]] = m[2]
		}
		all := true
		for _, n := range names {
			if got[n] == "" {
				all = false
			}
		}
		if all {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("addresses %v never appeared; output:\n%s", names, out.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestRunServesHTTPAndTCP boots the daemon on ephemeral ports with a real
// checkpoint and exercises /predict, /healthz, the TCP protocol, and the
// /metrics families end to end.
func TestRunServesHTTPAndTCP(t *testing.T) {
	model := saveCheckpoint(t)
	var out syncBuffer
	var errOut bytes.Buffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-model", model,
			"-addr", "127.0.0.1:0",
			"-tcp-addr", "127.0.0.1:0",
			"-obs", "127.0.0.1:0",
			"-duration", "60s", // safety net; the test exits via SIGINT below
		}, &out, &errOut)
	}()
	addrs := waitAddrs(t, &out, "http", "tcp", "observability")

	window := make([][]float64, 10)
	for i := range window {
		window[i] = make([]float64, 9)
	}
	payload, _ := json.Marshal(serve.PredictRequest{Window: window})
	resp, err := http.Post("http://"+addrs["http"]+"/predict", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var pr serve.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/predict status %d", resp.StatusCode)
	}

	conn, err := net.Dial("tcp", addrs["tcp"])
	if err != nil {
		t.Fatal(err)
	}
	frame, err := serve.EncodeWireFrame(nil, window)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	status, pred, err := serve.ReadWireResponse(conn)
	conn.Close()
	if err != nil || status != serve.StatusOK {
		t.Fatalf("tcp response (%d, %v, %v)", status, pred, err)
	}
	if pred != pr.Prediction {
		t.Fatalf("tcp prediction %v != http prediction %v for the same window", pred, pr.Prediction)
	}

	mresp, err := http.Get("http://" + addrs["observability"] + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"predstream_serve_requests_total",
		"predstream_serve_shed_total",
		"predstream_serve_batches_total",
		"predstream_serve_latency_seconds_bucket",
		"predstream_serve_latency_quantile_seconds{quantile=\"0.99\"}",
		"predstream_serve_queue_depth",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %s", want)
		}
	}

	// SIGINT triggers the graceful-shutdown path; run's handler is the
	// only one registered, so the test process survives the signal.
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("run: %v (stderr: %s)", err, errOut.String())
	}
	if !strings.Contains(out.String(), "shutting down") {
		t.Fatalf("missing shutdown line in output:\n%s", out.String())
	}
}
