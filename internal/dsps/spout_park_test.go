package dsps

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// closedLoopSpout keeps exactly one root in flight: it emits the next only
// after the previous one was acked and reports no work otherwise, so every
// root finds the spout parked in its idle wait. All methods run on the
// spout executor; elapsed carries first emit → last ack to the test.
type closedLoopSpout struct {
	BaseSpout
	limit int

	collector SpoutCollector
	next      int
	inFlight  bool
	start     time.Time
	elapsed   chan time.Duration
}

func (s *closedLoopSpout) Open(_ TopologyContext, c SpoutCollector) { s.collector = c }

func (s *closedLoopSpout) NextTuple() bool {
	if s.inFlight || s.next >= s.limit {
		return false
	}
	if s.next == 0 {
		s.start = time.Now()
	}
	s.collector.Emit(Values{s.next}, s.next)
	s.next++
	s.inFlight = true
	return true
}

func (s *closedLoopSpout) Ack(any) {
	s.inFlight = false
	if s.next == s.limit {
		s.elapsed <- time.Since(s.start)
	}
}

// TestIdleSpoutWokenByAck pins that a completion wakes an idle spout: the
// ack is delivered, and NextTuple polled again, when the ack arrives and not
// when the spout's re-poll timer next fires. Left to the timer, every root
// costs a sleep quantum (≥ 1 ms on Linux) and 300 take about 300 ms.
func TestIdleSpoutWokenByAck(t *testing.T) {
	// The ring plane is the one data plane; the subtest keeps its name.
	t.Run("rings", func(t *testing.T) {
		const roots = 300
		spout := &closedLoopSpout{limit: roots, elapsed: make(chan time.Duration, 1)}
		b := NewTopologyBuilder("ackwake")
		b.SetSpout("src", func() Spout { return spout }, 1, "n")
		b.SetBolt("pass", func() Bolt {
			return &BoltFunc{ExecuteFn: func(t *Tuple, c OutputCollector) { c.Emit(t.Values) }}
		}, 1).ShuffleGrouping("src")
		topo, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		c := testCluster()
		if err := c.Submit(topo, SubmitConfig{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown()
		select {
		case elapsed := <-spout.elapsed:
			if elapsed > 100*time.Millisecond {
				t.Fatalf("%d one-at-a-time roots took %v, want < 100ms: acks wait for a timer", roots, elapsed)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("spout did not complete %d roots", roots)
		}
	})
}

func TestKernelTimedRepollRule(t *testing.T) {
	if !kernelSleepOK {
		t.Skip("no kernel-timed sleep on this platform: every idle wait is the timer wait")
	}
	for _, c := range []struct {
		streak int
		want   bool
	}{{0, false}, {1, false}, {2, true}, {1000, true}} {
		if got := kernelTimedRepoll(c.streak); got != c.want {
			t.Errorf("kernelTimedRepoll(%d) = %v, want %v", c.streak, got, c.want)
		}
	}
}

// runPacedSpout runs a spout that emits roots through one pass-through bolt
// and returns the spout's task after every root was emitted and the
// topology shut down. next reports whether NextTuple emits now; it runs on
// the spout executor, so it may keep state without locks.
func runPacedSpout(t *testing.T, next func(emit func()) bool, done <-chan struct{}) *task {
	return runPacedSpoutObserved(t, next, nil, nil, done)
}

// pacedSpout is runPacedSpout's spout: a SpoutFunc that also reports its
// acks.
type pacedSpout struct {
	SpoutFunc
	ack func()
}

func (s *pacedSpout) Ack(any) {
	if s.ack != nil {
		s.ack()
	}
}

// runPacedSpoutObserved is runPacedSpout with two observers, either of
// which may be nil: passed runs on the bolt executor each time the bolt
// has executed a root, and acked on the spout executor each time the
// spout hears an Ack.
func runPacedSpoutObserved(t *testing.T, next func(emit func()) bool, passed, acked func(), done <-chan struct{}) *task {
	t.Helper()
	var collector SpoutCollector
	seq := 0
	emit := func() {
		collector.Emit(Values{seq}, seq)
		seq++
	}
	spout := &pacedSpout{
		SpoutFunc: SpoutFunc{
			OpenFn: func(_ TopologyContext, c SpoutCollector) { collector = c },
			NextFn: func() bool { return next(emit) },
		},
		ack: acked,
	}
	b := NewTopologyBuilder("paced")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("pass", func() Bolt {
		return &BoltFunc{ExecuteFn: func(t *Tuple, c OutputCollector) {
			c.Emit(t.Values)
			if passed != nil {
				passed()
			}
		}}
	}, 1).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	var src *task
	for _, tk := range c.snapshotTops()[0].tasks {
		if tk.spout != nil {
			src = tk
		}
	}
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Error("spout did not emit every root")
	}
	c.Shutdown() // waits for the executors, so src's counters are settled
	return src
}

// TestPacedSpoutEmitsOnTime pins that a spout whose roots come due every
// 50 µs emits them about on time. On the timer wait alone every idle wait
// lasts a netpoller quantum (≈1.1 ms on Linux), and the median root is
// emitted ≈0.5 ms after it was due; the kernel-timed wait cuts that to
// ≈0.1 ms.
func TestPacedSpoutEmitsOnTime(t *testing.T) {
	if !kernelSleepOK {
		t.Skip("no kernel-timed sleep on this platform")
	}
	const (
		rate  = 20000 // roots per second
		roots = 10000
		bound = 300 * time.Microsecond
	)
	gap := time.Second / rate
	lags := make([]time.Duration, 0, roots)
	done := make(chan struct{})
	var start time.Time
	src := runPacedSpout(t, func(emit func()) bool {
		if start.IsZero() {
			start = time.Now()
		}
		if len(lags) == roots {
			return false
		}
		due := start.Add(time.Duration(len(lags)) * gap)
		now := time.Now()
		if now.Before(due) {
			return false
		}
		emit()
		if lags = append(lags, now.Sub(due)); len(lags) == roots {
			close(done)
		}
		return true
	}, done)
	slices.Sort(lags)
	median := lags[len(lags)/2]
	t.Logf("median emit lag %v over %d roots, %d kernel-timed waits", median, len(lags), src.naps)
	if median > bound {
		t.Errorf("median emit lag %v, want < %v: the spout oversleeps its %v re-poll", median, bound, spoutRepollInterval)
	}
	if src.naps == 0 {
		t.Error("a spout behind its schedule never took the kernel-timed wait")
	}
}

// TestSlowSpoutKeepsTimerWait pins that a 200 roots/s spout, which emits
// one root between idle waits, never takes the kernel-timed wait: its
// timer wait ends well inside the 5 ms gap, and a kernel sleep would only
// hold its P. The spout skips roots it is late for instead of catching up,
// so that a scheduler stall cannot make it emit two in a row.
func TestSlowSpoutKeepsTimerWait(t *testing.T) {
	const (
		gap   = 5 * time.Millisecond
		roots = 100
	)
	done := make(chan struct{})
	var next time.Time
	emitted := 0
	src := runPacedSpout(t, func(emit func()) bool {
		now := time.Now()
		if emitted == roots || now.Before(next) {
			return false
		}
		emit()
		next = now.Add(gap)
		if emitted++; emitted == roots {
			close(done)
		}
		return true
	}, done)
	if src.naps != 0 {
		t.Errorf("a %v-paced spout took %d kernel-timed waits, want 0", gap, src.naps)
	}
}

// TestAckEndsSpoutNap pins that an ack ends the kernel-timed wait: a
// spout whose roots come due every 50 µs hears each Ack a few µs after the
// bolt finished its latest root and sent the ops (≈3 µs; ≈35 µs under the
// race detector). A nap that the ack cannot cut short makes that hand-off
// wait out the rest of the 100 µs sleep plus the timer slack: its median
// is then about one nap (≈165 µs). The hand-off is timed from the bolt's
// latest root rather than from the acked one, which may have waited in
// the bolt for the rest of its input batch.
func TestAckEndsSpoutNap(t *testing.T) {
	if !kernelSleepOK {
		t.Skip("no kernel-timed sleep on this platform")
	}
	const (
		rate  = 20000 // roots per second
		roots = 10000
		bound = spoutRepollInterval // an ack that waited out a nap took longer
	)
	gap := time.Second / rate
	var passedNs atomic.Int64 // when the bolt last finished a root
	handoffs := make([]time.Duration, 0, roots)
	allAcked := make(chan struct{})
	emitted := 0
	var start time.Time
	src := runPacedSpoutObserved(t, func(emit func()) bool {
		if start.IsZero() {
			start = time.Now()
		}
		if emitted == roots || time.Now().Before(start.Add(time.Duration(emitted)*gap)) {
			return false
		}
		emit()
		emitted++
		return true
	}, func() {
		passedNs.Store(time.Now().UnixNano())
	}, func() {
		if handoffs = append(handoffs, time.Duration(time.Now().UnixNano()-passedNs.Load())); len(handoffs) == roots {
			close(allAcked)
		}
	}, allAcked)
	slices.Sort(handoffs)
	median := handoffs[len(handoffs)/2]
	t.Logf("median bolt-done → Ack %v over %d roots, %d kernel-timed waits", median, len(handoffs), src.naps)
	if src.naps == 0 {
		t.Fatal("a spout behind its schedule never took the kernel-timed wait")
	}
	if median > bound {
		t.Errorf("median bolt-done → Ack %v, want < %v: the ack waits out the spout's %v nap", median, bound, spoutRepollInterval)
	}
}
