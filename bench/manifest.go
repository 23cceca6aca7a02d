package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// BENCHMARK.json at the repository root is the one declaration of the
// benchmark's workloads and metrics: their names, units, directions and the
// bound the benchmark's driver holds each end-to-end metric to. The program
// reads it at start-up (it runs from the checkout root) and refuses to
// report a metric it does not declare.
const manifestPath = "BENCHMARK.json"

// Workload names, as BENCHMARK.json spells them.
const (
	wAppSaturate  = "app_saturate"
	wAppPaced     = "app_paced"
	wFleetFault   = "fleet_fault"
	wServePredict = "serve_predict"
	wTrainFit     = "train_fit"
)

// End-to-end metric names. The driver has every workload report every
// end-to-end metric, so they are named for what a user of the system sees;
// README.md says which of its own quantities each workload files under
// each name. mP50 is taken by every workload too but declared among the
// per-layer metrics: on app_saturate the median sits on the knee of a
// two-humped distribution and cannot repeat within any bound the driver
// accepts.
const (
	mSetup = "setup_s"
	mOps   = "ops_per_s"
	mP90   = "latency_p90_ms"
	mP50   = "latency_p50_ms"
	mP99   = "tail.latency_p99_ms"
)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricDecl declares one metric; Bound is set on end-to-end metrics only.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"`
}

func loadManifest(path string) (*manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("the benchmark runs from the root of a checkout: %w", err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &m, nil
}

// decl finds a metric's declaration by name.
func (m *manifest) decl(name string) (metricDecl, bool) {
	for _, d := range m.EndToEnd {
		if d.Name == name {
			return d, true
		}
	}
	for _, d := range m.PerLayer {
		if d.Name == name {
			return d, true
		}
	}
	return metricDecl{}, false
}

// A gate is the bound -compare holds one (workload, metric) pairing to.
// BENCHMARK.json can only bound a metric by name, so there the noisiest
// workload sets the bound for all five; the gates tighten it to 10%
// wherever the pairing's measured run-to-run spread on the reference host
// (README.md, "Two sets of bounds") leaves room, and add the issue's
// headline metrics that the manifest has to list as per-layer ones because
// they exist on one workload only. A pairing without a gate keeps its
// BENCHMARK.json bound, if it has one; a bound of 0 switches the gate off.
var gates = map[[2]string]float64{
	// app_saturate drifts with the host: 5-9% in a quiet hour, twice that
	// in a noisy one, when -compare reads "unresolved" and the answer is A/B
	// pairs (run.sh with two trees).
	{wAppSaturate, mOps}:   0.10,
	{wAppSaturate, mP90}:   0.10,
	{wAppSaturate, mSetup}: 0.10,

	// Pinned by the open-loop schedule: ops_per_s reads the offered rate on
	// these two and exists only because the driver wants every name from
	// every workload.
	{wAppPaced, mOps}:   0,
	{wFleetFault, mOps}: 0,

	{wAppPaced, mP50}:   0.10,
	{wAppPaced, mP90}:   0.10,
	{wAppPaced, mSetup}: 0.10,

	{wFleetFault, mP50}:                     0.10,
	{wFleetFault, mP90}:                     0.10,
	{wFleetFault, mSetup}:                   0.10,
	{wFleetFault, "core.time_to_bypass_ms"}: 0.10,

	{wServePredict, mOps}:   0.10,
	{wServePredict, mP50}:   0.10,
	{wServePredict, mP90}:   0.10,
	{wServePredict, mSetup}: 0.10,

	// train_fit: latency_p90_ms keeps the manifest's bound (spread 5-18%).
	{wTrainFit, mOps}:   0.10,
	{wTrainFit, mP50}:   0.10,
	{wTrainFit, mSetup}: 0.10,
	{wTrainFit, "drnn.train_batch_examples_per_s"}: 0.10,
	{wTrainFit, "drnn.forecasts_per_s"}:            0.10,
}

// boundFor is the bound a (workload, metric) pairing is compared under: its
// gate, else the metric's bound in BENCHMARK.json, else 0 (not gated).
func (m *manifest) boundFor(workload, metric string) float64 {
	if b, ok := gates[[2]string{workload, metric}]; ok {
		return b
	}
	d, _ := m.decl(metric)
	return d.Bound
}
