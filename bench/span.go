package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval recorded by the benchmark's own decorators,
// around a call into a layer. Spans of one root, control step, request or
// fit share an ID; Parent names the span of the same ID that caused this
// one ("" for the top span). Times are nanoseconds since the recorder was
// made.
type span struct {
	Name   string
	ID     uint64
	Parent string
	Start  int64
	End    int64
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is off unless the
// run is a traced one, and a traced run may switch it off for alternate
// windows to price the tracing itself.
type recorder struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// enabled reports whether spans are being kept right now.
func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

// ns converts a wall time to the recorder's clock.
func (r *recorder) ns(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// add keeps one span.
func (r *recorder) add(name string, id uint64, parent string, start, end time.Time) {
	s := span{Name: name, ID: id, Parent: parent, Start: r.ns(start), End: r.ns(end)}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// all returns the recorded spans ordered by start time.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// coveredNs returns how much of [start, end) the given intervals cover,
// counting overlaps once.
func coveredNs(start, end int64, children []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := c.Start, c.End
		if a < start {
			a = start
		}
		if b > end {
			b = end
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return covered
}

// selfNs is a span's self time: its duration minus the part of it that its
// child spans cover.
func selfNs(parent span, children []span) int64 {
	return parent.dur() - coveredNs(parent.Start, parent.End, children)
}

// chromeEvent is one complete ("X") event of the Chrome trace_event format.
type chromeEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`  // microseconds
	Dur  float64           `json:"dur"` // microseconds
	Pid  int               `json:"pid"`
	Tid  uint64            `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// writeChromeTrace writes spans as a Chrome trace_event JSON document
// (load it in chrome://tracing or Perfetto). Each shared ID becomes one
// track, so a root's or a step's spans line up under each other.
func writeChromeTrace(path, workload string, spans []span) error {
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		ev := chromeEvent{
			Name: s.Name, Cat: workload, Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: 1, Tid: s.ID,
		}
		if s.Parent != "" {
			ev.Args = map[string]string{"parent": s.Parent}
		}
		events = append(events, ev)
	}
	doc := struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
