package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"predstream/internal/dsps"
)

// Exporters for the engine's sampled tuple traces (dsps.Trace): a full-
// fidelity JSON array and the Chrome trace_event format for
// about://tracing.

// WriteTraceJSON writes the spans as a JSON array, one span object per
// line, in the given (ring) order with all timestamps intact.
func WriteTraceJSON(w io.Writer, spans []dsps.TraceSpan) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, s := range spans {
		b, err := json.Marshal(traceSpanJSON(s))
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(spans)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "  %s%s", b, sep); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// spanJSON mirrors dsps.TraceSpan with Kind rendered as its string name
// (the dsps struct tags would serialize the raw uint8).
type spanJSON struct {
	Seq             uint64 `json:"seq"`
	RootID          uint64 `json:"root_id"`
	Kind            string `json:"kind"`
	Topology        string `json:"topology"`
	Component       string `json:"component"`
	TaskID          int    `json:"task_id"`
	TaskIndex       int    `json:"task_index"`
	WorkerID        string `json:"worker_id"`
	SourceComponent string `json:"source_component,omitempty"`
	StartNs         int64  `json:"start_ns"`
	EndNs           int64  `json:"end_ns"`
	QueueNs         int64  `json:"queue_ns,omitempty"`
	Fanout          int    `json:"fanout,omitempty"`
}

func traceSpanJSON(s dsps.TraceSpan) spanJSON {
	return spanJSON{
		Seq:             s.Seq,
		RootID:          s.RootID,
		Kind:            s.Kind.String(),
		Topology:        s.Topology,
		Component:       s.Component,
		TaskID:          s.TaskID,
		TaskIndex:       s.TaskIndex,
		WorkerID:        s.WorkerID,
		SourceComponent: s.SourceComponent,
		StartNs:         s.StartNs,
		EndNs:           s.EndNs,
		QueueNs:         s.QueueNs,
		Fanout:          s.Fanout,
	}
}

// chromeEvent is one Chrome trace_event "complete" event (ph:"X");
// timestamps and durations are in microseconds.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// WriteChromeTrace writes the spans in Chrome trace_event JSON: load the
// output in about://tracing (or https://ui.perfetto.dev) to see each
// task as a track with its sampled executions. Timestamps are shifted so
// the earliest span starts at zero; pid 1 is the engine, tid is the
// dsps task id.
func WriteChromeTrace(w io.Writer, spans []dsps.TraceSpan) error {
	var t0 int64
	for i, s := range spans {
		if i == 0 || s.StartNs < t0 {
			t0 = s.StartNs
		}
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		dur := float64(s.EndNs-s.StartNs) / 1e3
		if dur <= 0 {
			// Chrome drops zero-duration complete events; keep emits
			// visible as 1µs slivers.
			dur = 1
		}
		args := map[string]string{
			"root_id":   fmt.Sprintf("%016x", s.RootID),
			"worker":    s.WorkerID,
			"component": s.Component,
		}
		if s.Kind == dsps.SpanExec {
			args["queue_us"] = fmt.Sprintf("%.1f", float64(s.QueueNs)/1e3)
			args["source"] = s.SourceComponent
		} else {
			args["fanout"] = fmt.Sprintf("%d", s.Fanout)
		}
		events = append(events, chromeEvent{
			Name: s.Component,
			Cat:  s.Kind.String(),
			Ph:   "X",
			Ts:   float64(s.StartNs-t0) / 1e3,
			Dur:  dur,
			Pid:  1,
			Tid:  s.TaskID,
			Args: args,
		})
	}
	doc := struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
		DisplayUnit string        `json:"displayTimeUnit"`
	}{TraceEvents: events, DisplayUnit: "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}
