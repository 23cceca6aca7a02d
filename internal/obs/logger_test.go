package obs

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"predstream/internal/dsps"
)

func TestLoggerLevelsAndClock(t *testing.T) {
	sink := NewMemorySink(0)
	var tick int64
	l := NewLogger(sink, LevelInfo).WithClock(func() int64 { tick++; return tick })
	l.Debug("dropped")
	l.Info("kept", String("k", "v"))
	l.Warn("also kept", String("n", "7"))
	l.Error("errors too")
	recs := sink.Records()
	if len(recs) != 3 {
		t.Fatalf("%d records, want 3 (debug filtered)", len(recs))
	}
	if recs[0].Msg != "kept" || recs[0].Level != LevelInfo || recs[0].TimeNs != 1 {
		t.Fatalf("first record = %+v", recs[0])
	}
	if recs[1].Attrs[0] != (Attr{Key: "n", Value: "7"}) {
		t.Fatalf("attr = %+v", recs[1].Attrs[0])
	}
	if recs[2].TimeNs != 3 {
		t.Fatalf("clock not monotone per record: %+v", recs[2])
	}
}

func TestNilLoggerIsSafe(t *testing.T) {
	var l *Logger
	l.Info("no-op")
	l.Event(int(LevelError), "no-op", "k", "v")
	if l.WithClock(nil) != nil {
		t.Fatal("nil logger WithClock must stay nil")
	}
}

func TestLoggerEventSatisfiesEventSink(t *testing.T) {
	sink := NewMemorySink(0)
	l := NewLogger(sink, LevelDebug).WithClock(nil) // zero clock
	var es dsps.EventSink = l
	es.Event(dsps.EventWarn, "paired", "a", "1", "b", "2")
	es.Event(dsps.EventInfo, "odd", "only-key")
	recs := sink.Records()
	if len(recs) != 2 {
		t.Fatalf("%d records", len(recs))
	}
	if recs[0].Level != LevelWarn || recs[0].TimeNs != 0 {
		t.Fatalf("record = %+v", recs[0])
	}
	wantAttrs := []Attr{{Key: "a", Value: "1"}, {Key: "b", Value: "2"}}
	for i, a := range recs[0].Attrs {
		if a != wantAttrs[i] {
			t.Fatalf("attrs = %+v", recs[0].Attrs)
		}
	}
	if len(recs[1].Attrs) != 1 || recs[1].Attrs[0] != (Attr{Key: "only-key"}) {
		t.Fatalf("odd kv attrs = %+v", recs[1].Attrs)
	}
}

func TestLevelString(t *testing.T) {
	for lv, want := range map[Level]string{
		LevelDebug: "DEBUG", LevelInfo: "INFO", LevelWarn: "WARN", LevelError: "ERROR", Level(9): "LEVEL(9)",
	} {
		if got := lv.String(); got != want {
			t.Errorf("Level(%d).String() = %q, want %q", int(lv), got, want)
		}
	}
}

func TestMemorySinkLimit(t *testing.T) {
	s := NewMemorySink(3)
	l := NewLogger(s, LevelDebug).WithClock(nil)
	for i := 0; i < 10; i++ {
		l.Info("m", String("i", strconv.Itoa(i)))
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d, want 3", s.Len())
	}
	recs := s.Records()
	if recs[0].Attrs[0].Value != "7" || recs[2].Attrs[0].Value != "9" {
		t.Fatalf("kept wrong records: %+v", recs)
	}
	s.Reset()
	if s.Len() != 0 {
		t.Fatal("reset failed")
	}
}

func TestLoggerConcurrentUse(t *testing.T) {
	s := NewMemorySink(0)
	l := NewLogger(s, LevelDebug)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				l.Info("concurrent")
			}
		}()
	}
	wg.Wait()
	if s.Len() != 800 {
		t.Fatalf("len = %d, want 800", s.Len())
	}
	for _, r := range s.Records() {
		if !strings.HasPrefix(r.Msg, "concurrent") {
			t.Fatalf("corrupt record %+v", r)
		}
	}
}
