package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// reading is one metric as one run reports it: the value the run stands
// behind, and the spread of the in-run samples it was taken from.
type reading struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	Note  string  `json:"note,omitempty"`
}

// check is one correctness check of a workload.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is everything one run of one workload produced.
type result struct {
	m         *manifest
	Workload  string
	Readings  map[string]*reading
	Checks    []check
	Attempted int64
	Failed    int64
	Notes     []string
	// undeclared collects names a workload tried to report that
	// BENCHMARK.json does not declare; it fails the run.
	undeclared []string
}

func newResult(rc runConfig) *result {
	return &result{m: rc.m, Workload: rc.workload, Readings: map[string]*reading{}}
}

// set reports value for a metric; samples, when given, are the in-run
// samples it was derived from (their count and quartiles are printed).
func (r *result) set(name string, value float64, samples ...float64) *reading {
	d, ok := r.m.decl(name)
	if !ok {
		r.undeclared = append(r.undeclared, name)
		return &reading{}
	}
	rd := &reading{Name: name, Unit: d.Unit, Value: value, N: 1, Q1: value, Q3: value}
	if len(samples) > 0 {
		rd.N = len(samples)
		rd.Q1, rd.Q3 = quartiles(samples)
	}
	r.Readings[name] = rd
	return rd
}

// setMedian reports the median of samples.
func (r *result) setMedian(name string, samples []float64) *reading {
	return r.set(name, median(samples), samples...)
}

// setTail reports the want-quantile of samples, lowered to what their
// count supports, and notes when it was lowered.
func (r *result) setTail(name string, samples []float64, want float64) *reading {
	v, used := tailQuantile(samples, want)
	rd := r.set(name, v)
	rd.N = len(samples)
	if used != want {
		rd.Note = fmt.Sprintf("p%g of %d samples (too few for p%g)", used*100, len(samples), want*100)
	}
	return rd
}

// value returns a metric's reported value, or 0.
func (r *result) value(name string) float64 {
	if rd, ok := r.Readings[name]; ok {
		return rd.Value
	}
	return 0
}

// checkf records one correctness check.
func (r *result) checkf(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok || format != "" {
		c.Detail = fmt.Sprintf(format, args...)
	}
	r.Checks = append(r.Checks, c)
}

func (r *result) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// correct reports whether every check passed and nothing undeclared was
// reported.
func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return len(r.undeclared) == 0
}

// selected returns the readings of the run's last line: the end-to-end
// metrics of an untraced run or the per-layer metrics of a traced one, in
// BENCHMARK.json's order. A per-layer metric the workload did not report
// reads 0 — its layer did no work. A missing end-to-end metric is an error.
func (r *result) selected(traced bool) ([]reading, error) {
	decls := r.m.EndToEnd
	if traced {
		decls = r.m.PerLayer
	}
	out := make([]reading, 0, len(decls))
	for _, d := range decls {
		rd, ok := r.Readings[d.Name]
		switch {
		case ok:
			out = append(out, *rd)
		case traced:
			out = append(out, reading{Name: d.Name, Unit: d.Unit})
		default:
			return nil, fmt.Errorf("workload %s did not report end-to-end metric %s", r.Workload, d.Name)
		}
	}
	return out, nil
}

// reported returns every reading the run took, in BENCHMARK.json's order.
func (r *result) reported() []reading {
	var out []reading
	for _, d := range append(append([]metricDecl{}, r.m.EndToEnd...), r.m.PerLayer...) {
		if rd, ok := r.Readings[d.Name]; ok {
			out = append(out, *rd)
		}
	}
	return out
}

// printTable writes the human-readable report: every metric the run took,
// by name, with its unit, sample count, value and quartiles, then the
// checks.
func (r *result) printTable(w io.Writer) {
	fmt.Fprintf(w, "%-34s %16s %-6s %8s %14s %14s\n", "metric", "value", "unit", "n", "q1", "q3")
	for _, rd := range r.reported() {
		fmt.Fprintf(w, "%-34s %16.6g %-6s %8d %14.6g %14.6g", rd.Name, rd.Value, rd.Unit, rd.N, rd.Q1, rd.Q3)
		if rd.Note != "" {
			fmt.Fprintf(w, "  # %s", rd.Note)
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, c := range r.Checks {
		state := "ok  "
		if !c.OK {
			state = "FAIL"
		}
		fmt.Fprintf(w, "check %s %-28s %s\n", state, c.Name, c.Detail)
	}
	if len(r.undeclared) > 0 {
		sort.Strings(r.undeclared)
		fmt.Fprintf(w, "check FAIL undeclared metrics reported: %s\n", strings.Join(r.undeclared, ", "))
	}
	fmt.Fprintf(w, "attempted %d failed %d\n", r.Attempted, r.Failed)
}

// contractLine is the last line of standard output: one JSON object with
// exactly the keys the benchmark contract names.
func (r *result) contractLine(readings []reading) (string, error) {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	attempted := r.Attempted
	if attempted < 1 {
		attempted = 1
	}
	doc := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), attempted, r.Failed, map[string]mv{}}
	for _, rd := range readings {
		doc.Metrics[rd.Name] = mv{rd.Value, rd.Unit}
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("encode result: %w", err)
	}
	return string(b), nil
}

// setLatency files the latency metrics from per-window sample sets:
// latency_p50_ms as the median over windows of typical's per-window median,
// latency_p90_ms likewise from tail's per-window p90, and
// tail.latency_p99_ms from tail — per window where every window has the
// 1000 samples a p99 needs, else over the windows pooled. Taking quantiles
// per window and then the median keeps one disturbed window (a stalled VM)
// from deciding the run.
func (r *result) setLatency(typical, tail [][]float64) {
	var p50s, p90s, p99s, pooled []float64
	used90 := 0.9
	perWindow99 := true
	for _, w := range typical {
		if len(w) > 0 {
			p50s = append(p50s, quantile(w, 0.5))
		}
	}
	for _, w := range tail {
		if len(w) == 0 {
			continue
		}
		sorted := sortedCopy(w)
		q := max(min(0.9, supportedTail(len(w))), 0.5)
		p90s = append(p90s, quantileSorted(sorted, q))
		used90 = min(used90, q)
		if supportedTail(len(w)) >= 0.99 {
			p99s = append(p99s, quantileSorted(sorted, 0.99))
		} else {
			perWindow99 = false
		}
		pooled = append(pooled, w...)
	}
	r.setMedian(mP50, p50s)
	rd := r.setMedian(mP90, p90s)
	if used90 != 0.9 {
		rd.Note = fmt.Sprintf("p%g per window (too few samples for p90)", used90*100)
	}
	if perWindow99 && len(p99s) > 0 {
		r.setMedian(mP99, p99s)
	} else {
		r.setTail(mP99, pooled, 0.99)
	}
}
