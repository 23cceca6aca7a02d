package main

import (
	"bytes"
	"errors"
	"flag"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunHelp(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run([]string{"-h"}, &out, &errBuf)
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h returned %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(errBuf.String(), "-app") {
		t.Fatalf("usage text missing from stderr:\n%s", errBuf.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run([]string{"-bogus"}, &out, &errBuf); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunUnknownTarget(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run([]string{"-target", "latency"}, &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "unknown target") {
		t.Fatalf("err = %v, want unknown target", err)
	}
}

func TestRunUnknownApp(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run([]string{"-app", "nope"}, &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "unknown app") {
		t.Fatalf("err = %v, want unknown app", err)
	}
}

// tinyArgs keeps the synthetic end-to-end run to well under a second.
func tinyArgs(extra ...string) []string {
	return append([]string{
		"-steps", "60", "-epochs", "2", "-window", "4", "-seed", "1",
	}, extra...)
}

func TestRunSyntheticComparison(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run(tinyArgs(), &out, &errBuf); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "walk-forward over") {
		t.Fatalf("no comparison table:\n%s", s)
	}
	for _, model := range []string{"DRNN", "ARIMA", "SVR", "Naive"} {
		if !strings.Contains(s, model) {
			t.Fatalf("model %s missing from table:\n%s", model, s)
		}
	}
}

// TestRunAllWorkers pools every worker's walk-forward residuals and
// reports each model of the shared predictor set, SARIMA included.
func TestRunAllWorkers(t *testing.T) {
	var out, errBuf bytes.Buffer
	if err := run(tinyArgs("-all-workers", "-sarima-period", "5"), &out, &errBuf); err != nil {
		t.Fatalf("run: %v", err)
	}
	s := out.String()
	if !strings.Contains(s, "pooled walk-forward over 4 workers") {
		t.Fatalf("no pooled table:\n%s", s)
	}
	for _, model := range []string{"DRNN", "ARIMA", "SVR", "Naive", "SARIMA"} {
		if !strings.Contains(s, model) {
			t.Fatalf("model %s missing from pooled table:\n%s", model, s)
		}
	}
}

// TestRunSaveLoadRoundTrip checkpoints a fitted DRNN and evaluates the
// reloaded copy, covering both the -save and -load paths.
func TestRunSaveLoadRoundTrip(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "model.ckpt")
	var out, errBuf bytes.Buffer
	if err := run(tinyArgs("-save", ckpt), &out, &errBuf); err != nil {
		t.Fatalf("save run: %v", err)
	}
	if !strings.Contains(out.String(), "saved DRNN checkpoint") {
		t.Fatalf("no save confirmation:\n%s", out.String())
	}
	out.Reset()
	if err := run(tinyArgs("-load", ckpt), &out, &errBuf); err != nil {
		t.Fatalf("load run: %v", err)
	}
	if !strings.Contains(out.String(), "checkpoint evaluation over") {
		t.Fatalf("no checkpoint evaluation:\n%s", out.String())
	}
}

// TestRunTraceRoundTrip archives a synthetic trace to CSV and reads it
// back with -trace-in.
func TestRunTraceRoundTrip(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "trace.csv")
	var out, errBuf bytes.Buffer
	if err := run(tinyArgs("-trace-out", csv), &out, &errBuf); err != nil {
		t.Fatalf("archive run: %v", err)
	}
	if !strings.Contains(out.String(), "archived trace to") {
		t.Fatalf("no archive confirmation:\n%s", out.String())
	}
	out.Reset()
	if err := run(tinyArgs("-trace-in", csv), &out, &errBuf); err != nil {
		t.Fatalf("replay run: %v", err)
	}
	if !strings.Contains(out.String(), "walk-forward over") {
		t.Fatalf("no comparison table from archived trace:\n%s", out.String())
	}
}
