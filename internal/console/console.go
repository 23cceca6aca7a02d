// Package console exposes a running cluster's state over HTTP as JSON — a
// minimal stand-in for Storm's UI: cluster metrics snapshots, per-worker
// multilevel statistics windows, and controller decisions, consumable by
// dashboards or curl.
//
//	GET /healthz          → {"status":"ok"}
//	GET /snapshot         → the current dsps.Snapshot
//	GET /workers          → per-worker latest telemetry window
//	GET /workers?id=X     → one worker's full window series
//	GET /control          → the controller's most recent step reports (if attached)
package console

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"predstream/internal/core"
	"predstream/internal/dsps"
	"predstream/internal/telemetry"
)

// Server wires cluster, sampler and (optionally) controller into an
// http.Handler.
type Server struct {
	cluster    *dsps.Cluster
	sampler    *telemetry.Sampler
	controller *core.Controller
	mux        *http.ServeMux
}

// New builds a console for the cluster. sampler and controller may be nil;
// the corresponding endpoints then report 404.
func New(cluster *dsps.Cluster, sampler *telemetry.Sampler, controller *core.Controller) (*Server, error) {
	if cluster == nil {
		return nil, fmt.Errorf("console: nil cluster")
	}
	s := &Server{cluster: cluster, sampler: sampler, controller: controller, mux: http.NewServeMux()}
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/workers", s.handleWorkers)
	s.mux.HandleFunc("/control", s.handleControl)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]string{"status": "ok", "at": time.Now().UTC().Format(time.RFC3339)})
}

// snapshotJSON is the wire form of a cluster snapshot: durations become
// explicit nanosecond fields with millisecond conveniences.
type taskJSON struct {
	TaskID           int     `json:"task_id"`
	Component        string  `json:"component"`
	TaskIndex        int     `json:"task_index"`
	WorkerID         string  `json:"worker_id"`
	NodeID           string  `json:"node_id"`
	Executed         int64   `json:"executed"`
	Emitted          int64   `json:"emitted"`
	Acked            int64   `json:"acked"`
	Failed           int64   `json:"failed"`
	Dropped          int64   `json:"dropped"`
	QueueLen         int     `json:"queue_len"`
	AvgExecLatencyMs float64 `json:"avg_exec_latency_ms"`
	AvgCompleteLatMs float64 `json:"avg_complete_latency_ms"`
}

type workerJSON struct {
	WorkerID    string  `json:"worker_id"`
	NodeID      string  `json:"node_id"`
	Executed    int64   `json:"executed"`
	Emitted     int64   `json:"emitted"`
	QueueLen    int     `json:"queue_len"`
	Slowdown    float64 `json:"slowdown"`
	Misbehaving bool    `json:"misbehaving"`
	AvgExecMs   float64 `json:"avg_exec_latency_ms"`
}

type nodeJSON struct {
	NodeID   string   `json:"node_id"`
	Cores    int      `json:"cores"`
	Workers  []string `json:"workers"`
	Executed int64    `json:"executed"`
	Busy     int      `json:"busy"`
}

type snapshotJSON struct {
	At      time.Time    `json:"at"`
	Tasks   []taskJSON   `json:"tasks"`
	Workers []workerJSON `json:"workers"`
	Nodes   []nodeJSON   `json:"nodes"`
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	snap := s.cluster.Snapshot()
	out := snapshotJSON{At: snap.At}
	for _, t := range snap.Tasks {
		out.Tasks = append(out.Tasks, taskJSON{
			TaskID: t.TaskID, Component: t.Component, TaskIndex: t.TaskIndex,
			WorkerID: t.WorkerID, NodeID: t.NodeID,
			Executed: t.Executed, Emitted: t.Emitted, Acked: t.Acked,
			Failed: t.Failed, Dropped: t.Dropped, QueueLen: t.QueueLen,
			AvgExecLatencyMs: t.AvgExecLatency().Seconds() * 1000,
			AvgCompleteLatMs: t.AvgCompleteLatency().Seconds() * 1000,
		})
	}
	for _, ws := range snap.Workers {
		out.Workers = append(out.Workers, workerJSON{
			WorkerID: ws.WorkerID, NodeID: ws.NodeID,
			Executed: ws.Executed, Emitted: ws.Emitted, QueueLen: ws.QueueLen,
			Slowdown: ws.Slowdown, Misbehaving: ws.Misbehaving,
			AvgExecMs: ws.AvgExecLatency().Seconds() * 1000,
		})
	}
	for _, n := range snap.Nodes {
		out.Nodes = append(out.Nodes, nodeJSON{
			NodeID: n.NodeID, Cores: n.Cores, Workers: n.Workers,
			Executed: n.Executed, Busy: n.Busy,
		})
	}
	writeJSON(w, out)
}

func (s *Server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	if s.sampler == nil {
		http.Error(w, "no sampler attached", http.StatusNotFound)
		return
	}
	if id := r.URL.Query().Get("id"); id != "" {
		series := s.sampler.Series(id)
		if len(series) == 0 {
			http.Error(w, fmt.Sprintf("no windows for worker %q", id), http.StatusNotFound)
			return
		}
		writeJSON(w, series)
		return
	}
	latest := map[string]telemetry.WindowStats{}
	for _, id := range s.sampler.Workers() {
		series := s.sampler.Series(id)
		if len(series) > 0 {
			latest[id] = series[len(series)-1]
		}
	}
	writeJSON(w, latest)
}

func (s *Server) handleControl(w http.ResponseWriter, _ *http.Request) {
	if s.controller == nil {
		http.Error(w, "no controller attached", http.StatusNotFound)
		return
	}
	writeJSON(w, s.controller.History())
}
