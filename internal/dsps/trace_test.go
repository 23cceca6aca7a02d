package dsps

import (
	"sync"
	"testing"
	"time"
)

func TestTraceSamplingDeterministicAndRateBounded(t *testing.T) {
	tr := newTrace(0.25, 16)
	hits := 0
	const n = 100000
	for i := uint64(0); i < n; i++ {
		first := tr.sampled(i)
		if first != tr.sampled(i) {
			t.Fatalf("sampling of root %d not stable", i)
		}
		if first {
			hits++
		}
	}
	// splitmix64 is a good mixer; the hit rate over 100k roots must sit
	// close to the configured rate.
	got := float64(hits) / n
	if got < 0.24 || got > 0.26 {
		t.Fatalf("sample rate = %.4f, want ~0.25", got)
	}

	if all := newTrace(1, 16); !all.sampled(0) || !all.sampled(^uint64(0)) {
		t.Fatal("rate 1 must sample every root")
	}
	if none := newTrace(0, 16); none.sampled(1) || none.sampled(12345) {
		t.Fatal("rate 0 must sample nothing")
	}
	// Out-of-range rates clamp rather than misbehave.
	if tr := newTrace(7, 16); tr.SampleRate() != 1 {
		t.Fatalf("rate 7 clamped to %v, want 1", tr.SampleRate())
	}
	if tr := newTrace(-1, 16); tr.SampleRate() != 0 {
		t.Fatalf("rate -1 clamped to %v, want 0", tr.SampleRate())
	}
}

func TestTraceRingWraparound(t *testing.T) {
	tr := newTrace(1, 4)
	if tr.Cap() != 4 {
		t.Fatalf("cap = %d, want 4", tr.Cap())
	}
	for i := 0; i < 10; i++ {
		tr.record(TraceSpan{RootID: uint64(i)})
	}
	if got := tr.Len(); got != 4 {
		t.Fatalf("len = %d, want 4", got)
	}
	if got := tr.Recorded(); got != 10 {
		t.Fatalf("recorded = %d, want 10", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(spans))
	}
	// Oldest-first: the survivors are roots 6..9 with seqs 6..9.
	for i, s := range spans {
		want := uint64(6 + i)
		if s.RootID != want || s.Seq != want {
			t.Fatalf("span %d = root %d seq %d, want %d", i, s.RootID, s.Seq, want)
		}
	}
	tr.Reset()
	if tr.Len() != 0 || tr.Recorded() != 0 || tr.Dropped() != 0 {
		t.Fatal("reset did not clear the ring")
	}
	tr.record(TraceSpan{RootID: 99})
	if got := tr.Spans(); len(got) != 1 || got[0].Seq != 0 {
		t.Fatalf("post-reset spans = %+v", got)
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	c := testCluster()
	defer c.Shutdown()
	if c.Trace() != nil {
		t.Fatal("trace ring exists without TraceSampleRate")
	}
}

func TestClusterTraceEndToEnd(t *testing.T) {
	const n = 200
	spout := &countingSpout{limit: n}
	b := NewTopologyBuilder("traced")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("relay", func() Bolt { return &relayBolt{} }, 2, "n").ShuffleGrouping("src")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("relay")
	topo, _ := b.Build()
	c := testCluster(func(cfg *ClusterConfig) {
		cfg.TraceSampleRate = 1
		cfg.TraceBufferSize = 4 * n
	})
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(5 * time.Second) {
		t.Fatal("did not drain")
	}
	tr := c.Trace()
	if tr == nil {
		t.Fatal("no trace ring")
	}
	spans := tr.Spans()
	emits, execs := 0, 0
	roots := map[uint64]bool{}
	for _, s := range spans {
		if s.Topology != "traced" {
			t.Fatalf("span topology = %q", s.Topology)
		}
		switch s.Kind {
		case SpanEmit:
			emits++
			if s.Component != "src" || s.Fanout != 1 || s.SourceComponent != "" {
				t.Fatalf("bad emit span: %+v", s)
			}
			if roots[s.RootID] {
				t.Fatalf("root %d emitted twice", s.RootID)
			}
			roots[s.RootID] = true
		case SpanExec:
			execs++
			if s.Component != "relay" && s.Component != "sink" {
				t.Fatalf("exec span from %q", s.Component)
			}
			if s.QueueNs < 0 || s.EndNs < s.StartNs {
				t.Fatalf("bad exec timings: %+v", s)
			}
		}
	}
	// Rate 1 with a big enough ring: every root has one emit span and
	// one exec span per stage (relay, sink).
	if emits != n {
		t.Fatalf("emit spans = %d, want %d", emits, n)
	}
	if execs != 2*n {
		t.Fatalf("exec spans = %d, want %d", execs, 2*n)
	}
	for _, s := range spans {
		if s.Kind == SpanExec && !roots[s.RootID] {
			t.Fatalf("exec span of unsampled root %d", s.RootID)
		}
	}
	// Snapshot surfaces the data-plane batch and backpressure counters.
	snap := c.Snapshot()
	var batches int64
	for _, ts := range snap.Tasks {
		if ts.Batches < 0 || ts.BackpressureWaits < 0 {
			t.Fatalf("negative batch counters: %+v", ts)
		}
		batches += ts.Batches
	}
	if batches == 0 {
		t.Fatal("no batches counted")
	}
	spoutStats := snap.ComponentTasks("src")[0]
	if !spoutStats.IsSpout {
		t.Fatal("spout task not flagged IsSpout")
	}
	if snap.ComponentTasks("sink")[0].IsSpout {
		t.Fatal("bolt task flagged IsSpout")
	}
	if len(snap.Acker) != 1 || snap.Acker[0].Topology != "traced" {
		t.Fatalf("acker stats = %+v", snap.Acker)
	}
	if snap.Acker[0].InFlight != 0 {
		t.Fatalf("drained acker has %d in flight", snap.Acker[0].InFlight)
	}
}

// memEvents is a minimal EventSink capturing messages for assertions.
type memEvents struct {
	mu   sync.Mutex
	msgs []string
	kvs  [][]string
}

func (m *memEvents) Event(level int, msg string, kv ...string) {
	m.mu.Lock()
	m.msgs = append(m.msgs, msg)
	m.kvs = append(m.kvs, kv)
	m.mu.Unlock()
}

func (m *memEvents) has(msg string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, got := range m.msgs {
		if got == msg {
			return true
		}
	}
	return false
}

func TestClusterEmitsControlPlaneEvents(t *testing.T) {
	sink := &memEvents{}
	b := NewTopologyBuilder("evt")
	b.SetSpout("src", func() Spout { return &countingSpout{limit: 50} }, 1, "n")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("src")
	topo, _ := b.Build()
	c := testCluster(func(cfg *ClusterConfig) { cfg.Events = sink })
	if err := c.Submit(topo, SubmitConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(5 * time.Second) {
		t.Fatal("did not drain")
	}
	w := c.WorkerIDs()[0]
	if err := c.InjectFault(w, Fault{Slowdown: 4}); err != nil {
		t.Fatal(err)
	}
	c.ClearFault(w)
	if err := c.Rebalance("evt", SubmitConfig{Workers: 1}, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.ShutdownTopology("evt"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"topology submitted",
		"fault injected",
		"fault cleared",
		"topology rebalanced",
		"topology shutdown",
	} {
		if !sink.has(want) {
			t.Errorf("event %q not emitted (got %v)", want, sink.msgs)
		}
	}
}

func TestDynamicGroupingOnChange(t *testing.T) {
	g := &DynamicGrouping{}
	var mu sync.Mutex
	var got [][]float64
	g.SetOnChange(func(r []float64) {
		mu.Lock()
		got = append(got, r)
		mu.Unlock()
	})
	if err := g.SetRatios([]float64{0.7, 0.3}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(got) != 1 || got[0][0] != 0.7 || got[0][1] != 0.3 {
		mu.Unlock()
		t.Fatalf("callback got %v", got)
	}
	mu.Unlock()
	// The callback receives a copy: mutating it must not corrupt the
	// grouping's live ratios.
	got[0][0] = 99
	if r := g.Ratios(); r[0] != 0.7 {
		t.Fatalf("live ratios corrupted: %v", r)
	}
	g.SetOnChange(nil)
	if err := g.SetRatios([]float64{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 {
		t.Fatalf("unregistered callback still fired: %d calls", len(got))
	}
}
