package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"predstream/internal/core"
	"predstream/internal/dsps"
	"predstream/internal/telemetry"
)

func TestHTTPHandlerEndpoints(t *testing.T) {
	reg := NewRegistry()
	ctr := NewCounter("demo_total", "Demo.")
	ctr.Add(3)
	reg.Register(ctr)
	sink := NewMemorySink(8)
	NewLogger(sink, LevelDebug).WithClock(nil).Info("hello", String("k", "v"))
	h := HTTPHandler(ServerConfig{Registry: reg, Events: sink})

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	rec := get("/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "demo_total 3") {
		t.Fatalf("/metrics body:\n%s", rec.Body.String())
	}

	rec = get("/healthz")
	if rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "ok" {
		t.Fatalf("/healthz = %d %q", rec.Code, rec.Body.String())
	}

	// Tracing not configured: both trace endpoints 404.
	if got := get("/trace.json").Code; got != http.StatusNotFound {
		t.Fatalf("/trace.json without trace = %d", got)
	}
	if got := get("/trace/chrome").Code; got != http.StatusNotFound {
		t.Fatalf("/trace/chrome without trace = %d", got)
	}

	rec = get("/events")
	if rec.Code != http.StatusOK {
		t.Fatalf("/events status %d", rec.Code)
	}
	var events []struct {
		Level string `json:"level"`
		Msg   string `json:"msg"`
		Attrs []Attr `json:"attrs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &events); err != nil {
		t.Fatalf("/events not JSON: %v\n%s", err, rec.Body.String())
	}
	if len(events) != 1 || events[0].Level != "INFO" || events[0].Msg != "hello" ||
		events[0].Attrs[0] != (Attr{Key: "k", Value: "v"}) {
		t.Fatalf("/events = %+v", events)
	}

	if got := get("/debug/pprof/").Code; got != http.StatusOK {
		t.Fatalf("/debug/pprof/ = %d", got)
	}
}

func TestHTTPHandlerNilConfig404s(t *testing.T) {
	h := HTTPHandler(ServerConfig{})
	for _, path := range []string{"/metrics", "/events", "/trace.json"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s with empty config = %d, want 404", path, rec.Code)
		}
	}
}

// TestStatusEndpoints covers the status surface over a drained live
// topology: /healthz, then /snapshot, /workers and /control, each answering
// 404 when its source is unset.
func TestStatusEndpoints(t *testing.T) {
	c, dg := buildObsCluster(t)
	defer c.Shutdown()
	sampler := telemetry.NewSampler(0)
	sampler.Sample(c.Snapshot())
	sampler.Sample(c.Snapshot())
	ctrl, err := core.NewController(c, []core.ControlTarget{{Component: "work", Grouping: dg}}, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ctrl.Step(); err != nil {
		t.Fatal(err)
	}
	full := ServerConfig{Snapshots: c, Sampler: sampler, Controller: ctrl}

	for _, tc := range []struct {
		name  string
		cfg   ServerConfig
		path  string
		code  int
		check func(t *testing.T, body []byte)
	}{
		{"healthz", full, "/healthz", http.StatusOK, nil},
		{"snapshot", full, "/snapshot", http.StatusOK, func(t *testing.T, body []byte) {
			var snap struct {
				Tasks []struct {
					Component string `json:"component"`
					Executed  int64  `json:"executed"`
				} `json:"tasks"`
				Workers []struct {
					WorkerID string `json:"worker_id"`
				} `json:"workers"`
				Nodes []struct {
					NodeID string `json:"node_id"`
				} `json:"nodes"`
			}
			if err := json.Unmarshal(body, &snap); err != nil {
				t.Fatal(err)
			}
			if len(snap.Tasks) != 3 || len(snap.Workers) != 2 || len(snap.Nodes) != 2 {
				t.Fatalf("shape: %d tasks, %d workers, %d nodes", len(snap.Tasks), len(snap.Workers), len(snap.Nodes))
			}
			var workExec int64
			for _, task := range snap.Tasks {
				if task.Component == "work" {
					workExec += task.Executed
				}
			}
			if workExec != 100 {
				t.Fatalf("work executed %d, want 100", workExec)
			}
		}},
		{"snapshot without source", ServerConfig{}, "/snapshot", http.StatusNotFound, nil},
		{"workers latest", full, "/workers", http.StatusOK, func(t *testing.T, body []byte) {
			var latest map[string]telemetry.WindowStats
			if err := json.Unmarshal(body, &latest); err != nil {
				t.Fatal(err)
			}
			if len(latest) != 2 {
				t.Fatalf("workers reported: %v", latest)
			}
		}},
		{"workers by id", full, "/workers?id=" + sampler.Workers()[0], http.StatusOK, func(t *testing.T, body []byte) {
			var series []telemetry.WindowStats
			if err := json.Unmarshal(body, &series); err != nil {
				t.Fatal(err)
			}
			if len(series) == 0 {
				t.Fatal("empty series")
			}
		}},
		{"workers unknown id", full, "/workers?id=ghost", http.StatusNotFound, nil},
		{"workers without sampler", ServerConfig{Snapshots: c}, "/workers", http.StatusNotFound, nil},
		{"control", full, "/control", http.StatusOK, func(t *testing.T, body []byte) {
			var history []core.StepReport
			if err := json.Unmarshal(body, &history); err != nil {
				t.Fatal(err)
			}
			if len(history) != 1 {
				t.Fatalf("history = %d entries, want 1", len(history))
			}
		}},
		{"control without controller", ServerConfig{Snapshots: c}, "/control", http.StatusNotFound, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			HTTPHandler(tc.cfg).ServeHTTP(rec, httptest.NewRequest("GET", tc.path, nil))
			if rec.Code != tc.code {
				t.Fatalf("%s = %d, want %d\n%s", tc.path, rec.Code, tc.code, rec.Body.String())
			}
			if tc.check != nil {
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
					t.Fatalf("content type %q", ct)
				}
				tc.check(t, rec.Body.Bytes())
			}
		})
	}
}

func TestServerServesOverTCP(t *testing.T) {
	c, _ := buildObsCluster(t)
	defer c.Shutdown()
	reg := NewRegistry()
	reg.Register(NewClusterCollector(c))
	srv, err := NewServer("127.0.0.1:0", ServerConfig{Registry: reg, Trace: c.Trace()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "predstream_task_executed_total") {
		t.Fatalf("metrics over TCP: %d\n%s", resp.StatusCode, body)
	}

	resp, err = http.Get("http://" + srv.Addr() + "/trace.json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var spans []json.RawMessage
	if err := json.Unmarshal(body, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("trace over TCP: %v, %d spans", err, len(spans))
	}

	resp, err = http.Get("http://" + srv.Addr() + "/trace/chrome")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"traceEvents"`) {
		t.Fatalf("chrome trace over TCP:\n%s", body)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/healthz"); err == nil {
		t.Fatal("server still serving after Close")
	}
}

// Compile-time check: *Logger satisfies the engine's EventSink contract.
var _ dsps.EventSink = (*Logger)(nil)
