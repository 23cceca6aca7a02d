package analysis

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current analyzer output")

// TestAnalyzerGolden runs each analyzer over its corpus under testdata/:
// positive.go carries violations that must be reported (compared against
// expected.golden), suppressed.go carries the same class of violations
// under justified //dspslint:ignore directives that must not fail the run.
func TestAnalyzerGolden(t *testing.T) {
	for _, a := range Analyzers() {
		t.Run(a.Name, func(t *testing.T) {
			dir := filepath.Join("testdata", a.Name)
			patterns := []string{"."}
			if a.Name == "unused" {
				// bench/ stays unloaded: its reference must come from the
				// side parse of files outside the patterns.
				patterns = []string{"./lib", "./user"}
			}
			rep, err := Analyze(Config{
				Dir:          dir,
				Patterns:     patterns,
				Enable:       []string{a.Name},
				IncludeTests: true,
			})
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			if len(rep.TypeErrors) > 0 {
				t.Fatalf("corpus does not type-check: %v", rep.TypeErrors)
			}

			var b strings.Builder
			for _, d := range rep.Findings {
				fmt.Fprintf(&b, "%s: %s\n", filepath.Base(strings.SplitN(d.Position, ":", 2)[0])+":"+strings.SplitN(d.Position, ":", 2)[1], d.Message)
			}
			got := b.String()
			golden := filepath.Join(dir, "expected.golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings mismatch\n--- got ---\n%s--- want ---\n%s", got, want)
			}

			// Every corpus demonstrates suppression: at least one finding
			// in suppressed.go, all suppressed, all with a justification.
			if len(rep.Suppressed) == 0 {
				t.Errorf("corpus has no suppressed finding; suppressed.go must trigger %s under a //dspslint:ignore", a.Name)
			}
			for _, d := range rep.Suppressed {
				if d.Reason == "" {
					t.Errorf("suppression at %s carries no justification text", d.Position)
				}
			}
			for _, d := range rep.Findings {
				if strings.Contains(d.Position, "suppressed.go") {
					t.Errorf("unsuppressed finding leaked from suppressed.go: %s: %s", d.Position, d.Message)
				}
			}
		})
	}
}

// TestWallTimeCatchesInjectedNow pins the acceptance criterion directly:
// the corpus's annotated hot-path function with a time.Now() call is
// caught by the walltime analyzer.
func TestWallTimeCatchesInjectedNow(t *testing.T) {
	rep, err := Analyze(Config{
		Dir:      filepath.Join("testdata", "walltime"),
		Patterns: []string{"."},
		Enable:   []string{"walltime"},
	})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	found := false
	for _, d := range rep.Findings {
		if strings.Contains(d.Message, "time.Now") && strings.Contains(d.Message, "stampEnvelope") {
			found = true
		}
	}
	if !found {
		t.Fatalf("walltime did not catch the injected time.Now in stampEnvelope; findings: %+v", rep.Findings)
	}
}

// TestWallTimeTransitivePropagation pins the interprocedural acceptance
// criterion: a time.Now two static calls below a //dsps:hotpath root is
// reported against the un-annotated callee, with the witness chain from
// the root in the message.
func TestWallTimeTransitivePropagation(t *testing.T) {
	rep, err := Analyze(Config{
		Dir:      filepath.Join("testdata", "walltime"),
		Patterns: []string{"."},
		Enable:   []string{"walltime"},
	})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	found := false
	for _, d := range rep.Findings {
		if strings.Contains(d.Message, "time.Now in stampDeep") &&
			strings.Contains(d.Message, "hotRoot") &&
			strings.Contains(d.Message, "middle") {
			found = true
		}
	}
	if !found {
		t.Fatalf("walltime did not report the time.Now two calls below hotRoot with its witness chain; findings: %+v", rep.Findings)
	}
}

// TestAllocFreeCatchesInjectedBoxing pins the 0-alloc acceptance
// criterion: the corpus's interface boxing injected two calls below the
// hot root fails the run, carrying the call-graph witness chain.
func TestAllocFreeCatchesInjectedBoxing(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := Run(Config{
		Dir:      filepath.Join("testdata", "allocfree"),
		Patterns: []string{"."},
		Enable:   []string{"allocfree"},
		Stdout:   &out,
		Stderr:   &errBuf,
	})
	if code != 1 {
		t.Fatalf("boxing corpus must fail lint; got exit %d (stderr: %s)", code, errBuf.String())
	}
	if !strings.Contains(out.String(), "boxes on the heap in record") ||
		!strings.Contains(out.String(), "emitFast") {
		t.Fatalf("missing transitive boxing finding with witness chain:\n%s", out.String())
	}
}

// TestBaselineSuppressionDrift pins both drift directions: a recorded
// suppression with no live directive behind it (stale) and a live
// suppression the baseline never recorded (unrecorded) each fail the
// baseline check with an actionable message.
func TestBaselineSuppressionDrift(t *testing.T) {
	rep := &Report{Suppressed: []Diagnostic{
		{Analyzer: "walltime", Position: "a/b.go:10:2", Reason: "justified"},
	}}
	write := func(s Summary) string {
		path := filepath.Join(t.TempDir(), "baseline.json")
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	exact := write(Summary{Schema: 2, Suppressions: []SummarySuppression{
		{Analyzer: "walltime", Position: "a/b.go:10:2", Reason: "justified"},
	}})
	drift, err := VerifyBaseline(exact, rep)
	if err != nil || len(drift) != 0 {
		t.Fatalf("matching baseline must verify clean, got %v (%v)", drift, err)
	}

	stale := write(Summary{Schema: 2, Suppressions: []SummarySuppression{
		{Analyzer: "walltime", Position: "a/b.go:10:2", Reason: "justified"},
		{Analyzer: "maporder", Position: "gone.go:3:1", Reason: "deleted long ago"},
	}})
	drift, err = VerifyBaseline(stale, rep)
	if err != nil || len(drift) != 1 || !strings.Contains(drift[0], "stale suppression") {
		t.Fatalf("stale recorded suppression must drift, got %v (%v)", drift, err)
	}

	empty := write(Summary{Schema: 2})
	drift, err = VerifyBaseline(empty, rep)
	if err != nil || len(drift) != 1 || !strings.Contains(drift[0], "unrecorded suppression") {
		t.Fatalf("unrecorded live suppression must drift, got %v (%v)", drift, err)
	}

	if _, err := VerifyBaseline(filepath.Join(t.TempDir(), "missing.json"), rep); err == nil {
		t.Fatalf("unreadable baseline must be a hard error, not silent drift")
	}
}

// TestRepoIsLintClean is the driver self-test: dspslint over the whole
// repository must exit clean, with the full analyzer registry active and
// a non-trivial call graph behind the interprocedural passes.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	rep, err := Analyze(Config{
		Dir:          filepath.Join("..", ".."),
		Patterns:     []string{"./..."},
		IncludeTests: true,
	})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if len(rep.Analyzers) < 11 {
		t.Fatalf("want >= 11 analyzers active, got %v", rep.Analyzers)
	}
	if rep.CallGraph.Nodes < 100 || rep.CallGraph.Edges < 100 {
		t.Errorf("suspiciously small call graph: %+v (builder regression?)", rep.CallGraph)
	}
	for _, e := range rep.TypeErrors {
		t.Errorf("type error: %s", e)
	}
	for _, d := range rep.Findings {
		t.Errorf("finding: %s: %s: %s", d.Position, d.Analyzer, d.Message)
	}
	if rep.Packages < 20 {
		t.Errorf("suspiciously few packages loaded: %d (loader regression?)", rep.Packages)
	}
	for _, d := range rep.Suppressed {
		if d.Reason == "" {
			t.Errorf("suppression at %s has no justification", d.Position)
		}
	}
}

// TestDeterministicMarking pins both marking paths: the built-in package
// list and the //dsps:deterministic directive.
func TestDeterministicMarking(t *testing.T) {
	pkg := &Package{ImportPath: "predstream/internal/dsps"}
	markDeterministic("predstream", pkg)
	if !pkg.Deterministic {
		t.Errorf("internal/dsps must be deterministic via the built-in list")
	}
	ext := &Package{ImportPath: "predstream/internal/dsps_test"}
	markDeterministic("predstream", ext)
	if !ext.Deterministic {
		t.Errorf("external test package of a deterministic package must inherit the marking")
	}
	other := &Package{ImportPath: "predstream/internal/serve"}
	markDeterministic("predstream", other)
	if other.Deterministic {
		t.Errorf("internal/serve is not on the built-in deterministic list")
	}
}

// TestSelectAnalyzers covers the enable/disable flag plumbing.
func TestSelectAnalyzers(t *testing.T) {
	all, err := selectAnalyzers(nil, nil)
	if err != nil || len(all) != 11 {
		t.Fatalf("want all 11 analyzers, got %d (%v)", len(all), err)
	}
	only, err := selectAnalyzers([]string{"walltime"}, nil)
	if err != nil || len(only) != 1 || only[0].Name != "walltime" {
		t.Fatalf("enable=walltime: got %v (%v)", only, err)
	}
	rest, err := selectAnalyzers(nil, []string{"walltime", "maporder"})
	if err != nil || len(rest) != 9 {
		t.Fatalf("disable two: got %d (%v)", len(rest), err)
	}
	if _, err := selectAnalyzers([]string{"nope"}, nil); err == nil {
		t.Fatalf("unknown analyzer must error")
	}
	if _, err := selectAnalyzers([]string{"walltime"}, []string{"walltime"}); err == nil {
		t.Fatalf("empty selection must error")
	}
}

// TestRunJSONAndSummary covers the output formats end to end on one corpus.
func TestRunJSONAndSummary(t *testing.T) {
	var out, errBuf bytes.Buffer
	summaryPath := filepath.Join(t.TempDir(), "baseline.json")
	code := Run(Config{
		Dir:         filepath.Join("testdata", "walltime"),
		Patterns:    []string{"."},
		Enable:      []string{"walltime"},
		JSON:        true,
		SummaryPath: summaryPath,
		Stdout:      &out,
		Stderr:      &errBuf,
	})
	if code != 1 {
		t.Fatalf("corpus has findings; want exit 1, got %d (stderr: %s)", code, errBuf.String())
	}
	for _, needle := range []string{`"analyzer": "walltime"`, `"suppression_count"`, `"module": "predstream"`} {
		if !strings.Contains(out.String(), needle) {
			t.Errorf("JSON output missing %s:\n%s", needle, out.String())
		}
	}
	data, err := os.ReadFile(summaryPath)
	if err != nil {
		t.Fatalf("summary not written: %v", err)
	}
	for _, needle := range []string{`"suppression_count": 2`, `"walltime"`} {
		if !strings.Contains(string(data), needle) {
			t.Errorf("summary missing %s:\n%s", needle, data)
		}
	}
}

// TestIgnoreDirectiveParsing pins the directive grammar.
func TestIgnoreDirectiveParsing(t *testing.T) {
	e := &ignoreEntry{line: 10, analyzers: map[string]bool{"walltime": true}}
	if !e.covers("walltime", 10) || !e.covers("walltime", 11) {
		t.Errorf("directive must cover its own line and the next")
	}
	if e.covers("walltime", 12) || e.covers("maporder", 10) {
		t.Errorf("directive must not cover other lines or analyzers")
	}
	star := &ignoreEntry{line: 5}
	if !star.covers("anything", 5) {
		t.Errorf("star directive must cover all analyzers")
	}
}

// TestUnusedWithoutTestFiles pins the side parse: with -tests=false the
// other package's test file is not type-checked, yet its reference still
// keeps the shared helper live, so the findings match the full run.
func TestUnusedWithoutTestFiles(t *testing.T) {
	rep, err := Analyze(Config{
		Dir:      filepath.Join("testdata", "unused"),
		Patterns: []string{"./lib", "./user"},
		Enable:   []string{"unused"},
	})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	var got []string
	for _, d := range rep.Findings {
		got = append(got, d.Message[:strings.Index(d.Message, " ")])
	}
	if want := "lib.OnlyOwnTest lib.Uncalled lib.Countdown"; strings.Join(got, " ") != want {
		t.Fatalf("findings %v, want %s", got, want)
	}
}
