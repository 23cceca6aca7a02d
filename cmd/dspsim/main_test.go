package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
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
	if err := run([]string{"-no-such-flag"}, &out, &errBuf); err == nil {
		t.Fatal("unknown flag accepted")
	}
}

func TestRunUnknownApp(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run([]string{"-app", "nope"}, &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "unknown app") {
		t.Fatalf("err = %v, want unknown app", err)
	}
}

func TestRunControlRequiresDynamic(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run([]string{"-control", "-duration", "1s"}, &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "-dynamic") {
		t.Fatalf("err = %v, want -control requires -dynamic", err)
	}
}

// TestRunShortSession drives a tiny unpaced run end to end and checks the
// final tally line appears.
func TestRunShortSession(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run([]string{
		"-duration", "600ms", "-stats", "200ms", "-rate", "200", "-seed", "3",
	}, &out, &errBuf)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errBuf.String())
	}
	if !strings.Contains(out.String(), "final: acked=") {
		t.Fatalf("no final tally in output:\n%s", out.String())
	}
}

// TestRunWritesProfiles drives a short run with -cpuprofile/-memprofile
// and checks both files appear, non-empty, after a clean shutdown.
func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := dir + "/cpu.pprof"
	mem := dir + "/mem.pprof"
	var out, errBuf bytes.Buffer
	err := run([]string{
		"-duration", "400ms", "-stats", "200ms", "-rate", "200", "-seed", "3",
		"-cpuprofile", cpu, "-memprofile", mem,
	}, &out, &errBuf)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errBuf.String())
	}
	for _, p := range []string{cpu, mem} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile %s not written: %v", p, err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

// TestRunCPUProfileBadPath reports a usable error instead of a partial run.
func TestRunCPUProfileBadPath(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run([]string{"-duration", "100ms", "-cpuprofile", t.TempDir() + "/no/such/dir/cpu.pprof"}, &out, &errBuf)
	if err == nil || !strings.Contains(err.Error(), "cpuprofile") {
		t.Fatalf("err = %v, want cpuprofile error", err)
	}
}

// TestRunDataPlaneKnobs pins that the data-plane tuning values are engine
// constants, not flags: each former knob is rejected as an unknown flag.
func TestRunDataPlaneKnobs(t *testing.T) {
	for _, knob := range []string{"-acker-shards", "-batch", "-flush-interval", "-ring-size", "-wait-strategy"} {
		var out, errBuf bytes.Buffer
		if err := run([]string{knob, "1"}, &out, &errBuf); err == nil ||
			!strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want an undefined-flag error", knob, err)
		}
	}
}

// TestRunChaosSession exercises the -chaos path: a short generated fault
// schedule must replay cleanly and report zero violations.
func TestRunChaosSession(t *testing.T) {
	var out, errBuf bytes.Buffer
	err := run([]string{
		"-chaos", "-chaos-seed", "11", "-duration", "1s", "-rate", "300",
	}, &out, &errBuf)
	if err != nil {
		t.Fatalf("chaos run: %v\nstdout: %s", err, out.String())
	}
	s := out.String()
	if !strings.Contains(s, "chaos: replaying") {
		t.Fatalf("chaos banner missing:\n%s", s)
	}
	if !strings.Contains(s, "seed=11") {
		t.Fatalf("report does not carry the seed:\n%s", s)
	}
}
