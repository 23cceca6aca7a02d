package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"predstream/internal/core"
	"predstream/internal/dsps"
	"predstream/internal/telemetry"
)

// ServerConfig selects what the observability HTTP server exposes. Every
// field is optional: a nil field disables its endpoints with a 404.
type ServerConfig struct {
	// Registry backs /metrics.
	Registry *Registry
	// Trace backs /trace.json and /trace/chrome.
	Trace *dsps.Trace
	// Events backs /events with the buffered records.
	Events *MemorySink
	// Snapshots backs /snapshot: a local cluster, or a coordinator's
	// merged fleet view.
	Snapshots Snapshotter
	// Sampler backs /workers with per-worker telemetry windows.
	Sampler *telemetry.Sampler
	// Controller backs /control with the controller's recent step reports.
	Controller *core.Controller
}

// HTTPHandler builds the observability mux:
//
//	/metrics        Prometheus text exposition of the registry
//	/healthz        liveness probe ("ok")
//	/trace.json     sampled tuple trace, full-fidelity JSON
//	/trace/chrome   the same trace as Chrome trace_event (about://tracing)
//	/events         buffered structured events as JSON
//	/snapshot       the current engine metrics snapshot as JSON
//	/workers        each worker's latest telemetry window; ?id=X for X's series
//	/control        the controller's most recent step reports as JSON
//	/debug/pprof/   Go runtime profiles (CPU, heap, goroutine, ...)
func HTTPHandler(cfg ServerConfig) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Registry == nil {
			http.Error(w, "no metrics registry configured", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := cfg.Registry.WritePrometheus(w); err != nil {
			// Headers are already gone; the truncated page plus the error
			// line is the best available signal.
			fmt.Fprintf(w, "# encoding error: %v\n", err)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/trace.json", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Trace == nil {
			http.Error(w, "tracing disabled (set TraceSampleRate)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		WriteTraceJSON(w, cfg.Trace.Spans())
	})
	mux.HandleFunc("/trace/chrome", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Trace == nil {
			http.Error(w, "tracing disabled (set TraceSampleRate)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Disposition", `attachment; filename="predstream_trace.json"`)
		WriteChromeTrace(w, cfg.Trace.Spans())
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Events == nil {
			http.Error(w, "no event sink configured", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		records := cfg.Events.Records()
		type rec struct {
			TimeNs int64  `json:"time_ns"`
			Level  string `json:"level"`
			Msg    string `json:"msg"`
			Attrs  []Attr `json:"attrs,omitempty"`
		}
		out := make([]rec, 0, len(records))
		for _, r := range records {
			out = append(out, rec{TimeNs: r.TimeNs, Level: r.Level.String(), Msg: r.Msg, Attrs: r.Attrs})
		}
		writeJSON(w, out)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Snapshots == nil {
			http.Error(w, "no snapshot source configured", http.StatusNotFound)
			return
		}
		writeJSON(w, snapshotJSONOf(cfg.Snapshots.Snapshot()))
	})
	mux.HandleFunc("/workers", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Sampler == nil {
			http.Error(w, "no telemetry sampler configured", http.StatusNotFound)
			return
		}
		if id := r.URL.Query().Get("id"); id != "" {
			series := cfg.Sampler.Series(id)
			if len(series) == 0 {
				http.Error(w, fmt.Sprintf("no windows for worker %q", id), http.StatusNotFound)
				return
			}
			writeJSON(w, series)
			return
		}
		latest := map[string]telemetry.WindowStats{}
		for _, id := range cfg.Sampler.Workers() {
			if series := cfg.Sampler.Series(id); len(series) > 0 {
				latest[id] = series[len(series)-1]
			}
		}
		writeJSON(w, latest)
	})
	mux.HandleFunc("/control", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Controller == nil {
			http.Error(w, "no controller configured", http.StatusNotFound)
			return
		}
		writeJSON(w, cfg.Controller.History())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// The /snapshot wire form: durations become millisecond fields.
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

func snapshotJSONOf(snap *dsps.Snapshot) snapshotJSON {
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
	return out
}

// Server is a running observability HTTP server; create with NewServer,
// stop with Close.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// NewServer listens on addr (e.g. ":9090"; ":0" picks a free port) and
// serves the HTTPHandler mux in a background goroutine.
func NewServer(addr string, cfg ServerConfig) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: HTTPHandler(cfg), ReadHeaderTimeout: 5 * time.Second}
	go srv.Serve(ln) //dspslint:ignore goroleak stdlib body is invisible to the call graph; Serve returns when Close shuts the listener down
	return &Server{ln: ln, srv: srv}, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and releases the listener.
func (s *Server) Close() error { return s.srv.Close() }
