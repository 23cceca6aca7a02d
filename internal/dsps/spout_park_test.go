package dsps

import (
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
