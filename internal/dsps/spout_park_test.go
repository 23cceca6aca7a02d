package dsps

import (
	"runtime"
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

// runPacedSpout runs a spout that emits roots through one pass-through bolt
// and returns once every root was emitted and the topology shut down. next
// reports whether NextTuple emits now; it runs on the spout executor, so
// it may keep state without locks.
func runPacedSpout(t *testing.T, next func(emit func()) bool, done <-chan struct{}) {
	runPacedSpoutObserved(t, next, nil, nil, done)
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
func runPacedSpoutObserved(t *testing.T, next func(emit func()) bool, passed, acked func(), done <-chan struct{}) {
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
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Error("spout did not emit every root")
	}
	c.Shutdown() // waits for the executors
}

// TestPacedSpoutEmitsOnTime pins that a spout whose roots come due every
// 50 µs emits them about on time. On the timer wait alone every idle wait
// lasts a netpoller quantum (≈1.1 ms on Linux), and the median root is
// emitted ≈0.5 ms after it was due; the kernel-timed wait cuts that to
// ≈0.1 ms.
func TestPacedSpoutEmitsOnTime(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("no kernel-timed wait on this platform")
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
	runPacedSpout(t, func(emit func()) bool {
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
	t.Logf("median emit lag %v over %d roots", median, len(lags))
	if median > bound {
		t.Errorf("median emit lag %v, want < %v: the spout oversleeps its %v re-poll", median, bound, spoutRepollInterval)
	}
}

// TestSlowSpoutEmitsOnTime pins that a 200 roots/s spout, which emits one
// root between idle waits, emits each about on time too: every idle wait
// is the 100 µs re-poll, whatever the spout's rate. A spout left on the
// runtime timer wakes a netpoller quantum (≈1.1 ms on Linux) after it
// parked, and the median root is emitted ≈0.5 ms late. The spout skips
// roots it is late for instead of catching up, so that a scheduler stall
// cannot make it emit two in a row.
func TestSlowSpoutEmitsOnTime(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("no kernel-timed wait on this platform")
	}
	const (
		gap   = 5 * time.Millisecond
		roots = 100
		bound = 300 * time.Microsecond
	)
	done := make(chan struct{})
	var due time.Time
	lags := make([]time.Duration, 0, roots)
	runPacedSpout(t, func(emit func()) bool {
		now := time.Now()
		if due.IsZero() {
			due = now
		}
		if len(lags) == roots || now.Before(due) {
			return false
		}
		emit()
		lags = append(lags, now.Sub(due))
		due = now.Add(gap)
		if len(lags) == roots {
			close(done)
		}
		return true
	}, done)
	slices.Sort(lags)
	median := lags[len(lags)/2]
	t.Logf("median emit lag %v over %d roots", median, len(lags))
	if median > bound {
		t.Errorf("median emit lag of a %v-paced spout %v, want < %v: its idle wait oversleeps the %v re-poll", gap, median, bound, spoutRepollInterval)
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
	if runtime.GOOS != "linux" {
		t.Skip("no kernel-timed wait on this platform")
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
	runPacedSpoutObserved(t, func(emit func()) bool {
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
	t.Logf("median bolt-done → Ack %v over %d roots", median, len(handoffs))
	if median > bound {
		t.Errorf("median bolt-done → Ack %v, want < %v: the ack waits out the spout's %v nap", median, bound, spoutRepollInterval)
	}
}
