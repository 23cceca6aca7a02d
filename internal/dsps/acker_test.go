package dsps

import (
	"testing"
	"time"
)

// testAcker builds an acker on the real clock.
func testAcker(timeout time.Duration) *acker {
	return newAcker(timeout, nil)
}

func TestAckerLinearChainCompletes(t *testing.T) {
	a := testAcker(time.Minute)
	// Spout emits edge e1; bolt A consumes e1 and produces e2; bolt B
	// consumes e2 and produces nothing.
	const root, e1, e2 = 100, 11, 22
	a.register(root, e1, "m1", 0, 0)
	if _, done := a.transition(root, e1, []uint64{e2}); done {
		t.Fatal("completed before leaf acked")
	}
	r, done := a.transition(root, e2, nil)
	if !done || !r.ok || r.msgID != "m1" {
		t.Fatalf("result = %+v, done = %v", r, done)
	}
	if a.inFlight() != 0 {
		t.Fatal("entry not removed after completion")
	}
}

func TestAckerOutOfOrderTransitions(t *testing.T) {
	// The XOR tree is order-independent: the downstream ack may arrive
	// before the upstream transition that created its edge.
	a := testAcker(time.Minute)
	const root, e1, e2 = 200, 31, 32
	a.register(root, e1, "m", 0, 0)
	if _, done := a.transition(root, e2, nil); done { // leaf acks first
		t.Fatal("completed on leaf alone")
	}
	r, done := a.transition(root, e1, []uint64{e2}) // then the producer
	if !done || !r.ok {
		t.Fatalf("result = %+v, done = %v", r, done)
	}
}

func TestAckerFanOutTree(t *testing.T) {
	a := testAcker(time.Minute)
	// Spout emits two copies (e1, e2); each bolt copy emits two more.
	const root = 300
	edges := []uint64{1, 2, 3, 4, 5, 6}
	a.register(root, edges[0]^edges[1], "m", 0, 0)
	if _, done := a.transition(root, edges[0], []uint64{edges[2], edges[3]}); done {
		t.Fatal("completed early")
	}
	if _, done := a.transition(root, edges[1], []uint64{edges[4], edges[5]}); done {
		t.Fatal("completed early")
	}
	for i, leaf := range edges[2:] {
		r, done := a.transition(root, leaf, nil)
		if last := i == len(edges[2:])-1; done != last {
			t.Fatalf("leaf %d: done = %v", i, done)
		} else if last && (!r.ok || r.msgID != "m") {
			t.Fatalf("result = %+v", r)
		}
	}
}

func TestAckerExplicitFail(t *testing.T) {
	a := testAcker(time.Minute)
	a.register(1, 5, "m", 0, 3)
	r, done := a.fail(1)
	if !done || r.ok || r.spoutTID != 3 {
		t.Fatalf("result = %+v, done = %v", r, done)
	}
	// Late transitions for a failed root are ignored.
	if _, done := a.transition(1, 5, nil); done {
		t.Fatal("failed root completed again")
	}
	if _, done := a.fail(1); done {
		t.Fatal("failed root failed twice")
	}
}

func TestAckerTimeoutSweep(t *testing.T) {
	a := testAcker(10 * time.Millisecond)
	a.register(1, 5, "old", 0, 0)
	time.Sleep(20 * time.Millisecond)
	a.register(2, 6, "fresh", 0, 0)
	expired := a.sweep()
	if len(expired) != 1 {
		t.Fatalf("sweep failed %d roots, want 1", len(expired))
	}
	if expired[0].ok || expired[0].msgID != "old" {
		t.Fatalf("expired = %+v", expired[0])
	}
	if a.inFlight() != 1 {
		t.Fatalf("inFlight = %d, want the fresh root", a.inFlight())
	}
}

func TestAckerSweepDisabledWithoutTimeout(t *testing.T) {
	a := testAcker(0)
	a.register(1, 5, "m", 0, 0)
	if expired := a.sweep(); len(expired) != 0 {
		t.Fatalf("sweep with no timeout failed %d", len(expired))
	}
}

func TestAckerUnknownRootIgnored(t *testing.T) {
	a := testAcker(time.Minute)
	if _, done := a.transition(999, 1, nil); done {
		t.Fatal("unknown root completed")
	}
	if _, done := a.fail(999); done {
		t.Fatal("unknown root failed")
	}
}

func TestAckerLatencyMeasured(t *testing.T) {
	a := testAcker(time.Minute)
	stepNs := int64(0)
	a.nowNs = func() int64 {
		stepNs += int64(10 * time.Millisecond)
		return stepNs
	}
	a.register(1, 5, "m", 0, 0)        // now = +10ms
	r, done := a.transition(1, 5, nil) // now = +20ms
	if !done || r.latency != 10*time.Millisecond {
		t.Fatalf("latency = %v, done = %v", r.latency, done)
	}
}

func TestAckerRootsSpreadAcrossShards(t *testing.T) {
	a := testAcker(time.Minute)
	for root := uint64(1); root <= 64; root++ {
		a.register(root, root*7, root, 0, 0)
	}
	if a.inFlight() != 64 {
		t.Fatalf("inFlight = %d, want 64", a.inFlight())
	}
	occupied := 0
	for i := range a.shards {
		if len(a.shards[i].pending) > 0 {
			occupied++
		}
	}
	if occupied != len(a.shards) {
		t.Fatalf("sequential roots occupy %d/%d shards", occupied, len(a.shards))
	}
	for root := uint64(1); root <= 64; root++ {
		if _, done := a.transition(root, root*7, nil); !done {
			t.Fatalf("root %d did not complete", root)
		}
	}
	if a.inFlight() != 0 {
		t.Fatalf("inFlight = %d after completing all", a.inFlight())
	}
}
