package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// resultsFile is the one schema every workload's machine-written results
// use. Runs are appended one at a time (-json); Summary is recomputed on
// every append and is what -compare reads.
type resultsFile struct {
	Schema  int          `json:"schema"`
	Host    hostInfo     `json:"host"`
	Runs    []runRecord  `json:"runs"`
	Summary []summaryRow `json:"summary"`
}

// hostInfo is the fingerprint of where the runs were taken.
type hostInfo struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
}

// runRecord is one run of one workload.
type runRecord struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
}

// summaryRow is one (workload, metric) over every run of one kind in the
// file: the median of the runs' values and their quartiles. Untraced and
// traced runs are kept apart, and only untraced rows carry a bound (the
// pairing's gate, see manifest.go): the gated metrics are taken with
// tracing off.
type summaryRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Traced   bool    `json:"traced"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Bound    float64 `json:"bound"`
	N        int     `json:"n"`
	Median   float64 `json:"median"`
	Q1       float64 `json:"q1"`
	Q3       float64 `json:"q3"`
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
}

// spread is the distance between the quartiles as a share of the median.
func (s summaryRow) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// runQuartiles returns the quartiles of run-to-run values the way Python's
// statistics.quantiles(values, n=4) does (its default, exclusive method),
// so that the spread printed here is the spread the benchmark's driver
// computes. One value has no spread.
func runQuartiles(values []float64) (q1, q2, q3 float64) {
	s := sortedCopy(values)
	m := len(s)
	if m == 0 {
		return 0, 0, 0
	}
	if m == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// summarizeRuns rebuilds the summary rows from the runs.
func summarizeRuns(m *manifest, runs []runRecord) []summaryRow {
	type key struct {
		w, m   string
		traced bool
	}
	values := map[key][]float64{}
	units := map[key]string{}
	var order []key
	for _, r := range runs {
		names := make([]string, 0, len(r.Metrics))
		for n := range r.Metrics {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			k := key{r.Workload, n, r.Traced}
			if _, seen := values[k]; !seen {
				order = append(order, k)
			}
			values[k] = append(values[k], r.Metrics[n].Value)
			units[k] = r.Metrics[n].Unit
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].w != order[j].w {
			return order[i].w < order[j].w
		}
		if order[i].traced != order[j].traced {
			return !order[i].traced
		}
		return order[i].m < order[j].m
	})
	out := make([]summaryRow, 0, len(order))
	for _, k := range order {
		v := values[k]
		q1, q2, q3 := runQuartiles(v)
		s := sortedCopy(v)
		row := summaryRow{Workload: k.w, Metric: k.m, Traced: k.traced, Unit: units[k], N: len(v), Median: q2, Q1: q1, Q3: q3, Min: s[0], Max: s[len(s)-1]}
		if d, ok := m.decl(k.m); ok {
			row.Better = d.Better
		}
		if !k.traced {
			row.Bound = m.boundFor(k.w, k.m)
		}
		out = append(out, row)
	}
	return out
}

// readHost fingerprints the host. A checkout that is not a git repository
// reads commit "unknown".
func readHost() hostInfo {
	h := hostInfo{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OSArch: runtime.GOOS + "/" + runtime.GOARCH,
		CPUModel: "unknown", Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(line, "model name") {
				if _, v, ok := strings.Cut(line, ":"); ok {
					h.CPUModel = strings.TrimSpace(v)
				}
				break
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultsFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// appendRun adds this run to the results file at path, creating it if
// need be.
func appendRun(path string, rc runConfig, res *result) error {
	f, err := loadResults(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		f = &resultsFile{Schema: 1}
	case err != nil:
		return err
	}
	f.Host = readHost()
	rec := runRecord{
		Workload: rc.workload, Seed: rc.seed, Seconds: rc.seconds, Traced: rc.traced,
		Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed,
		Metrics: map[string]reading{},
	}
	for _, rd := range res.reported() {
		rec.Metrics[rd.Name] = rd
	}
	f.Runs = append(f.Runs, rec)
	f.Summary = summarizeRuns(rc.m, f.Runs)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return fmt.Errorf("encode results: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}

// Verdicts of a comparison row.
const (
	verdictOK         = "ok"
	verdictRegressed  = "REGRESSED"
	verdictUnresolved = "unresolved"
	verdictInfo       = "-"
)

// compareRow is one (metric, workload) of a comparison.
type compareRow struct {
	base, change summaryRow
	worsePct     float64 // how much worse the change's median is, % of base; negative = better
	spreadPct    float64 // the wider of the two recorded spreads, % of median
	verdict      string
}

// compareSummaries pairs the rows two files share. A row regresses when
// the change's median is worse than the base's by more than the metric's
// bound. Where the recorded spread is wider than the bound the runs cannot
// tell "no worse" from "worse", so the row is unresolved, not ok — unless
// every run of the change read better than every run of the base.
func compareSummaries(base, change []summaryRow) []compareRow {
	type key struct {
		w, m   string
		traced bool
	}
	idx := map[key]summaryRow{}
	for _, r := range change {
		idx[key{r.Workload, r.Metric, r.Traced}] = r
	}
	var rows []compareRow
	for _, a := range base {
		b, ok := idx[key{a.Workload, a.Metric, a.Traced}]
		if !ok {
			continue
		}
		row := compareRow{base: a, change: b, verdict: verdictInfo}
		if a.Median != 0 {
			row.worsePct = (b.Median - a.Median) / a.Median * 100
			if a.Better == "higher" {
				row.worsePct = -row.worsePct
			}
		}
		row.spreadPct = 100 * max(a.spread(), b.spread())
		if a.Bound > 0 {
			allBetter := b.Max < a.Min
			if a.Better == "higher" {
				allBetter = b.Min > a.Max
			}
			switch {
			case row.worsePct > a.Bound*100:
				row.verdict = verdictRegressed
			case row.spreadPct > a.Bound*100 && !allBetter:
				row.verdict = verdictUnresolved
			default:
				row.verdict = verdictOK
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// compareFiles prints one row per (metric, workload) and fails only when a
// gated pairing regressed.
func compareFiles(w io.Writer, basePath, changePath string) error {
	base, err := loadResults(basePath)
	if err != nil {
		return err
	}
	change, err := loadResults(changePath)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "base   %s: %s, %d CPUs, GOMAXPROCS %d, %s, commit %s\n", basePath, base.Host.CPUModel, base.Host.NProc, base.Host.GOMAXPROCS, base.Host.GoVersion, base.Host.Commit)
	fmt.Fprintf(w, "change %s: %s, %d CPUs, GOMAXPROCS %d, %s, commit %s\n", changePath, change.Host.CPUModel, change.Host.NProc, change.Host.GOMAXPROCS, change.Host.GoVersion, change.Host.Commit)
	rows := compareSummaries(base.Summary, change.Summary)
	fmt.Fprintf(w, "%-14s %5s %-34s %-6s %14s %3s %14s %3s %9s %9s %7s  %s\n",
		"workload", "trace", "metric", "unit", "base", "n", "change", "n", "worse%", "spread%", "bound%", "verdict")
	regressed := 0
	for _, r := range rows {
		bound := "-"
		if r.base.Bound > 0 {
			bound = fmt.Sprintf("%.0f", r.base.Bound*100)
		}
		traced := 0
		if r.base.Traced {
			traced = 1
		}
		fmt.Fprintf(w, "%-14s %5d %-34s %-6s %14.6g %3d %14.6g %3d %+9.2f %9.2f %7s  %s\n",
			r.base.Workload, traced, r.base.Metric, r.base.Unit, r.base.Median, r.base.N, r.change.Median, r.change.N,
			r.worsePct, r.spreadPct, bound, r.verdict)
		if r.verdict == verdictRegressed {
			regressed++
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) worse than their bound", regressed)
	}
	return nil
}
