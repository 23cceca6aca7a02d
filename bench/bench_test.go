package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestSupportedTail(t *testing.T) {
	// The highest percentile with at least ten samples beyond it.
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {199, 0.9}, {200, 0.95},
		{999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999},
	}
	for _, c := range cases {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 400)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, used := tailQuantile(xs, 0.99); used != 0.95 {
		t.Errorf("400 samples: p99 should be lowered to p95, used %v", used)
	}
	if v, used := tailQuantile(xs, 0.9); used != 0.9 || v < 358 || v > 360 {
		t.Errorf("400 samples: p90 is supported, got %v at %v", v, used)
	}
	if v, used := tailQuantile(xs[:5], 0.99); used != 0.5 || v != 2 {
		t.Errorf("5 samples fall back to the median, got %v at %v", v, used)
	}
}

func TestQuantileAndRunQuartiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := quantile(xs, 0.25); got != 2 {
		t.Errorf("q1 = %v", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	var ten []float64
	for i := 1; i <= 10; i++ {
		ten = append(ten, float64(i))
	}
	q1, q2, q3 := runQuartiles(ten)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("runQuartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0].
	q1, q2, q3 = runQuartiles([]float64{40, 10, 20})
	if q1 != 10 || q2 != 20 || q3 != 40 {
		t.Errorf("runQuartiles(10,20,40) = %v %v %v", q1, q2, q3)
	}
}

func TestSchedulesComeFromTheSeed(t *testing.T) {
	a := poissonSchedule(7, serveRate, 1000)
	b := poissonSchedule(7, serveRate, 1000)
	c := poissonSchedule(8, serveRate, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed, different Poisson schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds, same Poisson schedule")
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d before arrival %d", i, i-1)
		}
	}
	// 1000 arrivals take about 1000/rate seconds.
	want := 1000 * time.Second / serveRate
	if last := a[len(a)-1]; last < want*8/10 || last > want*12/10 {
		t.Errorf("1000 arrivals at %d/s end at %v, want about %v", serveRate, last, want)
	}

	s := newPacedSchedule(pacedRate)
	if s.dueNs(0) != 0 || s.dueNs(pacedRate) != int64(time.Second) {
		t.Errorf("paced schedule: root %d due at %d ns", pacedRate, s.dueNs(pacedRate))
	}

	x, err := genInputs(7, 4096)
	if err != nil {
		t.Fatal(err)
	}
	y, _ := genInputs(7, 4096)
	z, _ := genInputs(8, 4096)
	if !reflect.DeepEqual(x.urls, y.urls) {
		t.Error("same seed, different URL streams")
	}
	if reflect.DeepEqual(x.urls, z.urls) {
		t.Error("different seeds, same URL stream")
	}
	// The reference is the per-host count of the first n roots, cycling.
	ref := x.reference(4096*2 + 10)
	var total int64
	for _, c := range ref {
		total += c
	}
	if total != 4096*2+10 {
		t.Errorf("reference counts %d roots, want %d", total, 4096*2+10)
	}
	if ref[x.hosts[0]] < 3 {
		t.Errorf("host of root 0 appears %d times in 2 cycles + 10", ref[x.hosts[0]])
	}
}

func TestSpanSelfTime(t *testing.T) {
	parent := span{Name: "core.step", ID: 1, Start: 100, End: 200}
	children := []span{
		{Name: "a", ID: 1, Parent: "core.step", Start: 110, End: 130},
		{Name: "b", ID: 1, Parent: "core.step", Start: 120, End: 150}, // overlaps a
		{Name: "c", ID: 1, Parent: "core.step", Start: 190, End: 250}, // runs past the parent
		{Name: "d", ID: 1, Parent: "core.step", Start: 10, End: 20},   // outside
	}
	// Covered: [110,150) and [190,200) = 50 of 100.
	if got := selfNs(parent, children); got != 50 {
		t.Errorf("self time = %d, want 50", got)
	}
	if got := selfNs(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
	// A control step's children run one after another; its self time is
	// what they leave.
	sr := stepRecord{
		step: span{Name: stepSpan, ID: 7, Start: 0, End: 1000},
		children: []span{
			{Name: stepSpan + ".snapshot", ID: 7, Parent: stepSpan, Start: 0, End: 300},
			{Name: stepSpan + ".predict", ID: 7, Parent: stepSpan, Start: 350, End: 550},
			{Name: stepSpan + ".predict", ID: 7, Parent: stepSpan, Start: 550, End: 750},
			{Name: stepSpan + ".actuate", ID: 7, Parent: stepSpan, Start: 900, End: 990},
		},
	}
	if sr.childUs("predict") != 0.4 || sr.childUs("detect") != 0 || sr.selfUs() != 0.21 {
		t.Errorf("step: predict %v us, detect %v us, self %v us; want 0.4, 0, 0.21", sr.childUs("predict"), sr.childUs("detect"), sr.selfUs())
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// testManifest loads the BENCHMARK.json the tests stand next to.
func testManifest(t *testing.T) *manifest {
	t.Helper()
	m, err := loadManifest("../" + manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMeetsContract holds BENCHMARK.json to the limits the
// benchmark's driver checks before a single run, and to the program: every
// declared workload is implemented and every gate names a declared pairing.
func TestManifestMeetsContract(t *testing.T) {
	m := testManifest(t)
	if data, err := os.ReadFile("../" + manifestPath); err != nil || len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json: %d bytes (limit 64 KiB), %v", len(data), err)
	}
	if !reflect.DeepEqual(m.Command, []string{"bash", "bench/bench.sh"}) || !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("command %v paths %v", m.Command, m.Paths)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %v", kind, n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 || n != len(workloadFuncs) {
		t.Errorf("%d workloads declared, %d implemented", n, len(workloadFuncs))
	}
	for _, w := range m.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if workloadFuncs[w.Name] == nil {
			t.Errorf("workload %s has no implementation", w.Name)
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup, ok := m.decl(mSetup)
	if !ok || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s declared as %+v", setup)
	}
	for _, d := range m.EndToEnd {
		name("end-to-end metric", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 || d.Bound > setup.Bound {
			t.Errorf("%s: bound %v outside (0, 0.25] or above setup_s's", d.Name, d.Bound)
		}
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, d := range m.PerLayer {
		name("per-layer metric", d.Name)
		if d.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", d.Name)
		}
	}
	for _, d := range append(append([]metricDecl{}, m.EndToEnd...), m.PerLayer...) {
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("%s: better %q", d.Name, d.Better)
		}
	}
	for pair, bound := range gates {
		d, ok := m.decl(pair[1])
		if workloadFuncs[pair[0]] == nil || !ok {
			t.Errorf("gate %v names an undeclared workload or metric", pair)
		}
		if bound < 0 || bound > 0.10 {
			t.Errorf("gate %v: bound %v; a pairing that cannot hold 10%% has no gate", pair, bound)
		}
		if d.Bound > 0 && bound > d.Bound {
			t.Errorf("gate %v: bound %v is looser than BENCHMARK.json's %v", pair, bound, d.Bound)
		}
	}
	if got := m.boundFor(wAppPaced, mOps); got != 0 {
		t.Errorf("the pinned rate of app_paced is gated at %v", got)
	}
	if d, _ := m.decl(mP90); m.boundFor(wTrainFit, mP90) != d.Bound {
		t.Errorf("a pairing without a gate must keep BENCHMARK.json's bound %v, has %v", d.Bound, m.boundFor(wTrainFit, mP90))
	}
}

func TestReadmeNamesEverything(t *testing.T) {
	m := testManifest(t)
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, w := range m.Workloads {
		if !strings.Contains(doc, "`"+w.Name+"`") {
			t.Errorf("README.md does not mention workload %s", w.Name)
		}
	}
	for _, d := range append(append([]metricDecl{}, m.EndToEnd...), m.PerLayer...) {
		if !strings.Contains(doc, "`"+d.Name+"`") {
			t.Errorf("README.md does not mention metric %s", d.Name)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	row := func(metric, better string, bound float64, vals ...float64) summaryRow {
		q1, q2, q3 := runQuartiles(vals)
		s := sortedCopy(vals)
		return summaryRow{Workload: "w", Metric: metric, Better: better, Bound: bound, N: len(vals), Median: q2, Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1]}
	}
	base := []summaryRow{
		row("steady_lower", "lower", 0.10, 100, 101, 99, 100, 100),
		row("regressed_lower", "lower", 0.10, 100, 101, 99, 100, 100),
		row("regressed_higher", "higher", 0.10, 100, 101, 99, 100, 100),
		row("noisy", "lower", 0.10, 100, 130, 80, 100, 120),
		row("noisy_but_clearly_better", "lower", 0.10, 100, 130, 80, 100, 120),
		row("layer", "lower", 0, 5, 5, 5),
	}
	change := []summaryRow{
		row("steady_lower", "lower", 0.10, 104, 105, 103, 104, 104),
		row("regressed_lower", "lower", 0.10, 120, 121, 119, 120, 120),
		row("regressed_higher", "higher", 0.10, 80, 81, 79, 80, 80),
		row("noisy", "lower", 0.10, 101, 131, 81, 101, 121),
		row("noisy_but_clearly_better", "lower", 0.10, 50, 60, 40, 50, 55),
		row("layer", "lower", 0, 50, 50, 50),
	}
	want := map[string]string{
		"steady_lower":             verdictOK,
		"regressed_lower":          verdictRegressed,
		"regressed_higher":         verdictRegressed,
		"noisy":                    verdictUnresolved,
		"noisy_but_clearly_better": verdictOK,
		"layer":                    verdictInfo,
	}
	for _, r := range compareSummaries(base, change) {
		if r.verdict != want[r.base.Metric] {
			t.Errorf("%s: verdict %s, want %s (worse %.1f%%, spread %.1f%%)", r.base.Metric, r.verdict, want[r.base.Metric], r.worsePct, r.spreadPct)
		}
	}
}

func TestContractLineAndResultsFile(t *testing.T) {
	m := testManifest(t)
	rc := runConfig{m: m, workload: wTrainFit, seed: 3, seconds: 1}
	res := newResult(rc)
	res.Attempted = 10
	res.set(mOps, 1234.5678, 1200, 1234.5678, 1300)
	res.set(mP50, 1.5)
	res.set(mP90, 2.5)
	res.set(mSetup, 0.25)
	res.set("drnn.forecasts_per_s", 7000)
	res.set("no.such.metric", 1)
	if res.correct() {
		t.Error("an undeclared metric must fail the run")
	}
	res.undeclared = nil
	readings, err := res.selected(false)
	if err != nil {
		t.Fatal(err)
	}
	line, err := res.contractLine(readings)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &doc); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := doc[k]; !ok {
			t.Errorf("contract line lacks %q", k)
		}
	}
	if len(doc) != 4 {
		t.Errorf("contract line has %d keys, want 4", len(doc))
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(doc["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(m.EndToEnd) || metrics[mOps].Value != 1234.5678 || metrics[mOps].Unit != "1/s" {
		t.Errorf("metrics = %+v", metrics)
	}
	// A traced run's last line has every per-layer metric, 0 where the
	// layer idles.
	layer, err := res.selected(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(layer) != len(m.PerLayer) {
		t.Errorf("traced run selects %d metrics, want %d", len(layer), len(m.PerLayer))
	}
	// A run missing an end-to-end metric is an error, not a zero.
	delete(res.Readings, mP90)
	if _, err := res.selected(false); err == nil {
		t.Error("missing end-to-end metric went unnoticed")
	}
	res.set(mP90, 2.5)

	// The results file keeps everything a run took, and each pairing's
	// gate next to it.
	path := t.TempDir() + "/results.json"
	for i := 0; i < 3; i++ {
		res.set(mOps, 1000+float64(i))
		if err := appendRun(path, rc, res); err != nil {
			t.Fatal(err)
		}
	}
	f, err := loadResults(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Runs) != 3 || f.Host.NProc == 0 || f.Host.GoVersion == "" {
		t.Errorf("results file: %d runs, host %+v", len(f.Runs), f.Host)
	}
	want := map[string]float64{mOps: gates[[2]string{wTrainFit, mOps}], "drnn.forecasts_per_s": gates[[2]string{wTrainFit, "drnn.forecasts_per_s"}]}
	for _, s := range f.Summary {
		bound, ok := want[s.Metric]
		if !ok {
			continue
		}
		delete(want, s.Metric)
		if s.N != 3 || s.Bound != bound || s.Traced || (s.Metric == mOps && (s.Median != 1001 || s.Unit != "1/s")) {
			t.Errorf("summary row %+v, want bound %v", s, bound)
		}
	}
	if len(want) > 0 {
		t.Errorf("no summary row for %v", want)
	}
	var out bytes.Buffer
	if err := compareFiles(&out, path, path); err != nil {
		t.Errorf("a file compared with itself: %v\n%s", err, out.String())
	}
}

// idleElsewhere lists, by metric-name prefix, the layers that do their work
// on one workload only and must read 0 on the others.
var idleElsewhere = map[string]string{
	"cluster.":   wFleetFault,
	"obs.":       wFleetFault,
	"telemetry.": wFleetFault,
	"serve.":     wServePredict,
	"arima.":     wTrainFit,
	"svr.":       wTrainFit,
}

// TestSmokeEveryWorkload runs each workload traced at a twentieth of its
// length: its correctness checks must pass, every end-to-end metric must
// be reported, every declared metric must come from some workload, nothing
// undeclared may be reported, the recorded spans must load back, and a
// layer must read 0 where it idles.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all five workloads")
	}
	m := testManifest(t)
	dir := t.TempDir()
	emitted := map[string]bool{}
	for _, w := range m.Workloads {
		rc := runConfig{m: m, start: time.Now(), workload: w.Name, seed: 11, seconds: float64(m.RunSeconds) / 20, traced: true, traceOut: dir + "/" + w.Name + ".json"}
		res, spans, err := workloadFuncs[w.Name](rc)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		t.Logf("%s took %.1fs", w.Name, time.Since(rc.start).Seconds())
		for _, c := range res.Checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", w.Name, c.Name, c.Detail)
			}
		}
		if len(res.undeclared) > 0 {
			t.Errorf("%s reported undeclared metrics %v", w.Name, res.undeclared)
		}
		for _, d := range m.EndToEnd {
			rd, ok := res.Readings[d.Name]
			if !ok || rd.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %+v", w.Name, d.Name, rd)
			}
		}
		for name, rd := range res.Readings {
			emitted[name] = true
			for prefix, only := range idleElsewhere {
				if strings.HasPrefix(name, prefix) && only != w.Name && rd.Value != 0 {
					t.Errorf("%s reports %s = %v, but that layer works on %s only", w.Name, name, rd.Value, only)
				}
			}
		}
		if len(spans) == 0 {
			t.Errorf("%s recorded no spans", w.Name)
		}
		if err := writeChromeTrace(rc.traceOut, w.Name, spans); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(rc.traceOut)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []chromeEvent `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) != len(spans) {
			t.Errorf("%s: trace file does not load back: %v (%d events, %d spans)", w.Name, err, len(doc.TraceEvents), len(spans))
		}
	}
	for _, d := range append(append([]metricDecl{}, m.EndToEnd...), m.PerLayer...) {
		if !emitted[d.Name] {
			t.Errorf("no workload reports declared metric %s", d.Name)
		}
	}
}
