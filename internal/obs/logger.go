package obs

import (
	"fmt"
	"sync"
	"time"
)

// Structured event logging, log/slog-style but stdlib-free of slog so
// the record clock is injectable: tests pin it to a fixed function and
// get byte-identical output for identically seeded runs.

// Level is the severity of a Record. The numeric values match the
// dsps.EventSink level constants (0=debug … 3=error).
type Level int

const (
	// LevelDebug marks high-volume diagnostic records.
	LevelDebug Level = 0
	// LevelInfo marks routine control actions.
	LevelInfo Level = 1
	// LevelWarn marks degraded-but-handled conditions.
	LevelWarn Level = 2
	// LevelError marks failures.
	LevelError Level = 3
)

// String implements fmt.Stringer.
func (l Level) String() string {
	switch l {
	case LevelDebug:
		return "DEBUG"
	case LevelInfo:
		return "INFO"
	case LevelWarn:
		return "WARN"
	case LevelError:
		return "ERROR"
	default:
		return fmt.Sprintf("LEVEL(%d)", int(l))
	}
}

// Attr is one ordered key/value attribute of a Record.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// String builds an Attr (a convenience mirroring slog.String).
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Record is one structured log event.
type Record struct {
	// TimeNs is the record timestamp in Unix nanoseconds, taken from the
	// logger's clock (zero when the logger's clock returns zero).
	TimeNs int64
	// Level is the severity.
	Level Level
	// Msg is the event message.
	Msg string
	// Attrs are the ordered attributes.
	Attrs []Attr
}

// Handler consumes records. Implementations must be safe for concurrent
// use; the Logger calls Handle from whatever goroutine logged.
type Handler interface {
	Handle(r Record)
}

// Logger filters by level, stamps records with its clock, and forwards
// them to a Handler. A nil *Logger is valid and drops everything, so
// optional observability wiring needs no nil checks at call sites.
type Logger struct {
	handler Handler
	min     Level
	nowNs   func() int64
}

// NewLogger returns a logger forwarding records at or above min to h,
// stamped with the wall clock.
func NewLogger(h Handler, min Level) *Logger {
	return &Logger{handler: h, min: min, nowNs: func() int64 { return time.Now().UnixNano() }}
}

// Log emits one record if level clears the logger's threshold.
func (l *Logger) Log(level Level, msg string, attrs ...Attr) {
	if l == nil || l.handler == nil || level < l.min {
		return
	}
	l.handler.Handle(Record{TimeNs: l.nowNs(), Level: level, Msg: msg, Attrs: attrs})
}

// Info logs at LevelInfo.
func (l *Logger) Info(msg string, attrs ...Attr) { l.Log(LevelInfo, msg, attrs...) }

// Event adapts the flat key/value form of dsps.EventSink, so a *Logger
// can be passed directly as dsps.ClusterConfig.Events (and to the chaos
// harness and controller) without dsps importing this package. kv pairs
// are consumed in order; a trailing odd key gets an empty value.
func (l *Logger) Event(level int, msg string, kv ...string) {
	if l == nil || l.handler == nil || Level(level) < l.min {
		return
	}
	attrs := make([]Attr, 0, (len(kv)+1)/2)
	for i := 0; i < len(kv); i += 2 {
		a := Attr{Key: kv[i]}
		if i+1 < len(kv) {
			a.Value = kv[i+1]
		}
		attrs = append(attrs, a)
	}
	l.Log(Level(level), msg, attrs...)
}

// MemorySink is a Handler buffering records in memory: the deterministic
// test sink, and the ring behind the HTTP server's /events endpoint.
// With a positive limit it keeps only the most recent records. Safe for
// concurrent use.
type MemorySink struct {
	mu      sync.Mutex
	limit   int
	records []Record
}

// NewMemorySink returns a sink retaining at most limit records (0 =
// unbounded).
func NewMemorySink(limit int) *MemorySink { return &MemorySink{limit: limit} }

// Handle implements Handler.
func (s *MemorySink) Handle(r Record) {
	s.mu.Lock()
	s.records = append(s.records, r)
	if s.limit > 0 && len(s.records) > s.limit {
		// Shift rather than re-slice so the backing array cannot grow
		// without bound under churn.
		n := copy(s.records, s.records[len(s.records)-s.limit:])
		s.records = s.records[:n]
	}
	s.mu.Unlock()
}

// Records returns a copy of the buffered records, oldest first.
func (s *MemorySink) Records() []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Record, len(s.records))
	copy(out, s.records)
	return out
}
