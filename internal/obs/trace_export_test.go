package obs

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"
	"time"

	"predstream/internal/dsps"
)

func sampleSpans() []dsps.TraceSpan {
	return []dsps.TraceSpan{
		{Seq: 0, RootID: 9, Kind: dsps.SpanEmit, Topology: "t", Component: "src",
			TaskID: 0, WorkerID: "worker-0", StartNs: 1000, EndNs: 1000, Fanout: 2},
		{Seq: 1, RootID: 9, Kind: dsps.SpanExec, Topology: "t", Component: "sink",
			TaskID: 1, WorkerID: "worker-1", SourceComponent: "src",
			StartNs: 2000, EndNs: 2500, QueueNs: 900},
		{Seq: 2, RootID: 3, Kind: dsps.SpanEmit, Topology: "t", Component: "src",
			TaskID: 0, WorkerID: "worker-0", StartNs: 3000, EndNs: 3000, Fanout: 1},
	}
}

func TestWriteTraceJSONRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTraceJSON(&buf, sampleSpans()); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	if len(decoded) != 3 {
		t.Fatalf("%d spans decoded", len(decoded))
	}
	if decoded[0]["kind"] != "emit" || decoded[1]["kind"] != "exec" {
		t.Fatalf("kinds = %v, %v", decoded[0]["kind"], decoded[1]["kind"])
	}
	if decoded[1]["source_component"] != "src" || decoded[1]["queue_ns"] != float64(900) {
		t.Fatalf("exec span = %v", decoded[1])
	}
	// Empty input is still a valid (empty) array.
	buf.Reset()
	if err := WriteTraceJSON(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var empty []any
	if err := json.Unmarshal(buf.Bytes(), &empty); err != nil || len(empty) != 0 {
		t.Fatalf("empty trace: %v %v", err, empty)
	}
}

func TestCanonicalTraceJSONSortsAndStrips(t *testing.T) {
	canon, err := CanonicalTraceJSON(sampleSpans())
	if err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]any
	if err := json.Unmarshal(canon, &decoded); err != nil {
		t.Fatal(err)
	}
	// Sorted by RootID: 3 first, then 9's emit before 9's exec.
	if decoded[0]["root_id"] != float64(3) {
		t.Fatalf("order = %v", decoded)
	}
	if decoded[1]["root_id"] != float64(9) || decoded[1]["kind"] != "emit" {
		t.Fatalf("emit-first ordering broken: %v", decoded[1])
	}
	if decoded[2]["kind"] != "exec" {
		t.Fatalf("order = %v", decoded)
	}
	for _, d := range decoded {
		for _, stripped := range []string{"seq", "start_ns", "end_ns", "queue_ns"} {
			if _, ok := d[stripped]; ok {
				t.Fatalf("canonical span still carries %q: %v", stripped, d)
			}
		}
	}
}

func TestWriteChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, sampleSpans()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Cat  string            `json:"cat"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int               `json:"pid"`
			Tid  int               `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayUnit != "ms" || len(doc.TraceEvents) != 3 {
		t.Fatalf("doc = %+v", doc)
	}
	// Timestamps shift so the earliest span (StartNs 1000) is at 0 µs.
	if doc.TraceEvents[0].Ts != 0 || doc.TraceEvents[1].Ts != 1 {
		t.Fatalf("ts = %v, %v", doc.TraceEvents[0].Ts, doc.TraceEvents[1].Ts)
	}
	// Zero-duration emits become 1µs slivers; the exec keeps its 0.5µs.
	if doc.TraceEvents[0].Dur != 1 || doc.TraceEvents[1].Dur != 0.5 {
		t.Fatalf("dur = %v, %v", doc.TraceEvents[0].Dur, doc.TraceEvents[1].Dur)
	}
	ev := doc.TraceEvents[1]
	if ev.Ph != "X" || ev.Pid != 1 || ev.Tid != 1 || ev.Cat != "exec" || ev.Args["source"] != "src" {
		t.Fatalf("exec event = %+v", ev)
	}
	if doc.TraceEvents[0].Args["fanout"] != "2" {
		t.Fatalf("emit args = %v", doc.TraceEvents[0].Args)
	}
}

// tracedRun drives a deterministically routed topology (single spout,
// shuffle fan-out, fields-grouped counter) with full sampling and returns
// its canonical trace.
func tracedRun(t *testing.T, seed int64) []byte {
	t.Helper()
	words := []string{"a", "b", "c", "d", "e"}
	var collector dsps.SpoutCollector
	next := 0
	spout := &dsps.SpoutFunc{
		OpenFn: func(_ dsps.TopologyContext, c dsps.SpoutCollector) { collector = c },
		NextFn: func() bool {
			if next >= 300 {
				return false
			}
			collector.Emit(dsps.Values{words[next%len(words)]}, next)
			next++
			return true
		},
	}
	b := dsps.NewTopologyBuilder("trace-det")
	b.SetSpout("src", func() dsps.Spout { return spout }, 1, "word")
	b.SetBolt("pass", func() dsps.Bolt {
		return &dsps.BoltFunc{
			ExecuteFn: func(tp *dsps.Tuple, c dsps.OutputCollector) {
				c.Emit(dsps.Values{tp.Values[0]})
			},
		}
	}, 2, "word").ShuffleGrouping("src")
	b.SetBolt("count", func() dsps.Bolt {
		return &dsps.BoltFunc{ExecuteFn: func(*dsps.Tuple, dsps.OutputCollector) {}}
	}, 3).FieldsGrouping("pass", "word")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := dsps.NewCluster(dsps.ClusterConfig{
		Nodes: 2, QueueSize: 256, AckTimeout: 5 * time.Second,
		Delayer: dsps.NopDelayer{}, Seed: seed,
		TraceSampleRate: 1, TraceBufferSize: 2048,
	})
	if err := c.Submit(topo, dsps.SubmitConfig{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(10 * time.Second) {
		t.Fatal("did not drain")
	}
	canon, err := CanonicalTraceJSON(c.Trace().Spans())
	if err != nil {
		t.Fatal(err)
	}
	return canon
}

// TestCanonicalTraceDeterministicAcrossRuns pins the observability
// determinism contract: two identically seeded runs produce byte-
// identical canonical trace JSON.
func TestCanonicalTraceDeterministicAcrossRuns(t *testing.T) {
	first := tracedRun(t, 42)
	second := tracedRun(t, 42)
	if !bytes.Equal(first, second) {
		t.Fatalf("identically seeded canonical traces differ:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	// Sanity: the trace covered the whole run (300 emits + 600 execs).
	var spans []json.RawMessage
	if err := json.Unmarshal(first, &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 900 {
		t.Fatalf("canonical trace has %d spans, want 900", len(spans))
	}
}

// canonicalSpan is a span with everything wall-clock- or arrival-order-
// dependent removed: no Seq, no timestamps. What remains — who executed
// which sampled root where — is a pure function of the seed for
// topologies with deterministic routing.
type canonicalSpan struct {
	RootID          uint64 `json:"root_id"`
	Kind            string `json:"kind"`
	Topology        string `json:"topology"`
	Component       string `json:"component"`
	TaskID          int    `json:"task_id"`
	TaskIndex       int    `json:"task_index"`
	WorkerID        string `json:"worker_id"`
	SourceComponent string `json:"source_component,omitempty"`
	Fanout          int    `json:"fanout,omitempty"`
}

// CanonicalTraceJSON returns the spans in canonical form: timings and
// ring sequence stripped, sorted by (RootID, Kind with emit first,
// Component, TaskID, SourceComponent). Two identically seeded runs of a
// topology with deterministic routing (fields/global/dynamic grouping, or
// a single producer per shuffle edge) produce byte-identical output, as
// long as the ring did not wrap (wraparound drops spans by arrival
// order, which is scheduling-dependent).
func CanonicalTraceJSON(spans []dsps.TraceSpan) ([]byte, error) {
	canon := make([]canonicalSpan, 0, len(spans))
	for _, s := range spans {
		canon = append(canon, canonicalSpan{
			RootID:          s.RootID,
			Kind:            s.Kind.String(),
			Topology:        s.Topology,
			Component:       s.Component,
			TaskID:          s.TaskID,
			TaskIndex:       s.TaskIndex,
			WorkerID:        s.WorkerID,
			SourceComponent: s.SourceComponent,
			Fanout:          s.Fanout,
		})
	}
	sort.Slice(canon, func(i, j int) bool {
		a, b := canon[i], canon[j]
		if a.RootID != b.RootID {
			return a.RootID < b.RootID
		}
		if a.Kind != b.Kind {
			return a.Kind == dsps.SpanEmit.String()
		}
		if a.Component != b.Component {
			return a.Component < b.Component
		}
		if a.TaskID != b.TaskID {
			return a.TaskID < b.TaskID
		}
		return a.SourceComponent < b.SourceComponent
	})
	return json.MarshalIndent(canon, "", "  ")
}
