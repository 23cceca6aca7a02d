package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-list"}, &out, &errBuf); code != 0 {
		t.Fatalf("-list exited %d, stderr: %s", code, errBuf.String())
	}
	for _, name := range []string{"allocfree", "atomicmix", "globalrand", "goroleak", "lockedsend", "lockorder", "maporder", "ringmisuse", "splicesend", "unused", "walltime"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, out.String())
		}
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errBuf); code != 2 {
		t.Fatalf("unknown flag exited %d, want 2", code)
	}
}

func TestRunUnknownAnalyzer(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{"-enable", "bogus", "."}, &out, &errBuf); code != 2 {
		t.Fatalf("unknown analyzer exited %d, want 2 (stderr: %s)", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), "bogus") {
		t.Errorf("error does not name the unknown analyzer:\n%s", errBuf.String())
	}
}

func TestRunCorpusFindings(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-C", "../../internal/analysis/testdata/walltime", "-enable", "walltime", "."}, &out, &errBuf)
	if code != 1 {
		t.Fatalf("corpus run exited %d, want 1 (stderr: %s)", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "time.Now in hot-path function") {
		t.Errorf("expected a walltime finding in output:\n%s", out.String())
	}
}

// TestRunGraphDump smoke-tests `dspslint -graph`: the allocfree corpus's
// hot root renders as a DOT digraph reaching its transitive callees.
func TestRunGraphDump(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-C", "../../internal/analysis/testdata/allocfree", "-graph", "emitFast", "."}, &out, &errBuf)
	if code != 0 {
		t.Fatalf("-graph exited %d (stderr: %s)", code, errBuf.String())
	}
	for _, needle := range []string{"digraph callgraph", "emitFast", "stage", "record", "->"} {
		if !strings.Contains(out.String(), needle) {
			t.Errorf("DOT output missing %q:\n%s", needle, out.String())
		}
	}
	if code := run([]string{"-C", "../../internal/analysis/testdata/allocfree", "-graph", "noSuchFunc", "."}, &out, &errBuf); code != 2 {
		t.Fatalf("-graph with unknown root exited %d, want 2", code)
	}
}

// TestRunBaselineDrift pins the CLI wiring of suppression-drift
// detection: a baseline recording a suppression that no longer exists
// (and missing the live ones) fails the run with actionable messages.
func TestRunBaselineDrift(t *testing.T) {
	path := filepath.Join(t.TempDir(), "baseline.json")
	stale := `{"schema": 2, "suppressions": [{"analyzer": "walltime", "position": "gone.go:1:1", "reason": "deleted"}]}`
	if err := os.WriteFile(path, []byte(stale), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errBuf bytes.Buffer
	code := run([]string{"-C", "../../internal/analysis/testdata/walltime", "-enable", "walltime", "-baseline", path, "."}, &out, &errBuf)
	if code != 1 {
		t.Fatalf("drifted baseline exited %d, want 1 (stderr: %s)", code, errBuf.String())
	}
	for _, needle := range []string{"stale suppression", "unrecorded suppression"} {
		if !strings.Contains(errBuf.String(), needle) {
			t.Errorf("stderr missing %q:\n%s", needle, errBuf.String())
		}
	}
}

// TestRunTimings checks the -timings rendering: per-stage wall times for
// the load, the call-graph build, and each active analyzer.
func TestRunTimings(t *testing.T) {
	var out, errBuf bytes.Buffer
	run([]string{"-C", "../../internal/analysis/testdata/walltime", "-enable", "walltime", "-timings", "."}, &out, &errBuf)
	for _, needle := range []string{"timings: load", "callgraph", "walltime"} {
		if !strings.Contains(out.String(), needle) {
			t.Errorf("-timings output missing %q:\n%s", needle, out.String())
		}
	}
}

func TestSplitList(t *testing.T) {
	got := splitList(" a, b ,,c ")
	want := []string{"a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("splitList: got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitList[%d]: got %q, want %q", i, got[i], want[i])
		}
	}
	if splitList("") != nil {
		t.Fatalf("splitList(\"\") must be nil")
	}
}
