package cluster

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"predstream/internal/dsps"
)

// testEngine builds a small continuously-emitting topology: src →
// work(3, dynamic grouping). Returns the engine and the grouping handle.
func testEngine(t *testing.T) (*dsps.Cluster, *dsps.DynamicGrouping) {
	t.Helper()
	b := dsps.NewTopologyBuilder("tpc")
	var col dsps.SpoutCollector
	n := 0
	b.SetSpout("src", func() dsps.Spout {
		return &dsps.SpoutFunc{
			OpenFn: func(_ dsps.TopologyContext, c dsps.SpoutCollector) { col = c },
			NextFn: func() bool {
				col.Emit(dsps.Values{n}, n)
				n++
				time.Sleep(time.Millisecond)
				return true
			},
		}
	}, 1, "n")
	dg := b.SetBolt("work", func() dsps.Bolt { return &dsps.BoltFunc{} }, 3).DynamicGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := dsps.NewCluster(dsps.ClusterConfig{Seed: 3, AckTimeout: 5 * time.Second})
	if err := c.Submit(topo, dsps.SubmitConfig{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	return c, dg
}

// startWorker runs a Worker against the coordinator in a goroutine and
// returns it plus a stop function that cancels and waits.
func startWorker(t *testing.T, coord *Coordinator, name string) (*Worker, *dsps.Cluster, func() error) {
	t.Helper()
	eng, dg := testEngine(t)
	w, err := NewWorker(WorkerConfig{
		Name:        name,
		Coordinator: coord.Addr().String(),
		Engine:      eng,
		Topology:    "tpc",
		Groupings:   map[string]*dsps.DynamicGrouping{"work": dg},
		Spouts:      []string{"src"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	stop := func() error {
		cancel()
		err := <-done
		eng.Shutdown()
		return err
	}
	return w, eng, stop
}

// rawHello dials the coordinator, sends one Hello, and returns the reply.
func rawHello(t *testing.T, addr string, h Hello) (uint8, []byte, net.Conn) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := WriteFrame(conn, MsgHello, AppendHello(nil, h)); err != nil {
		t.Fatal(err)
	}
	msgType, payload, err := ReadFrame(conn)
	if err != nil {
		conn.Close()
		t.Fatal(err)
	}
	return msgType, payload, conn
}

func TestHandshakeVersionMismatch(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	msgType, payload, conn := rawHello(t, coord.Addr().String(),
		Hello{MinVersion: 7, MaxVersion: 9, Name: "future"})
	defer conn.Close()
	if msgType != MsgReject {
		t.Fatalf("reply type %#x, want MsgReject", msgType)
	}
	r, err := DecodeReject(payload)
	if err != nil {
		t.Fatal(err)
	}
	if r.Code != RejectVersion {
		t.Fatalf("reject code %d, want RejectVersion", r.Code)
	}
	if coord.Stats().Rejects != 1 {
		t.Fatalf("stats = %+v", coord.Stats())
	}

	// A Worker whose range the coordinator rejects must give up rather
	// than retry forever. A fake coordinator answers every Hello with
	// RejectVersion, as one speaking only a future version would.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			if _, _, err := ReadFrame(c); err == nil {
				WriteFrame(c, MsgReject, AppendReject(nil, Reject{Code: RejectVersion, Detail: "speaks 7-9 only"}))
			}
			c.Close()
		}
	}()
	eng, _ := testEngine(t)
	defer eng.Shutdown()
	w, err := NewWorker(WorkerConfig{Name: "future", Coordinator: ln.Addr().String(), Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err = w.Run(ctx)
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("Run = %v, want permanent reject", err)
	}
}

func TestDuplicateJoinRejected(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	_, _, stop := startWorker(t, coord, "alpha")
	defer stop()
	if err := coord.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	msgType, payload, conn := rawHello(t, coord.Addr().String(),
		Hello{MinVersion: 1, MaxVersion: 1, Name: "alpha"})
	defer conn.Close()
	if msgType != MsgReject {
		t.Fatalf("reply type %#x, want MsgReject", msgType)
	}
	r, err := DecodeReject(payload)
	if err != nil {
		t.Fatal(err)
	}
	if r.Code != RejectDuplicate {
		t.Fatalf("reject code %d, want RejectDuplicate", r.Code)
	}
	// The live session must be unaffected.
	if err := coord.Ping("alpha"); err != nil {
		t.Fatal(err)
	}
}

func TestHeartbeatExpiryAndRejoinBumpsGeneration(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
		HeartbeatEvery: 20 * time.Millisecond,
		DeadAfter:      120 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	// Join raw and then go silent: no heartbeats ever.
	msgType, payload, conn := rawHello(t, coord.Addr().String(),
		Hello{MinVersion: 1, MaxVersion: 1, Name: "mute"})
	defer conn.Close()
	if msgType != MsgWelcome {
		t.Fatalf("reply type %#x, want MsgWelcome", msgType)
	}
	w, err := DecodeWelcome(payload)
	if err != nil {
		t.Fatal(err)
	}
	if w.Generation != 1 || w.HeartbeatEvery != 20*time.Millisecond {
		t.Fatalf("welcome = %+v", w)
	}

	deadline := time.Now().Add(5 * time.Second)
	for coord.Stats().Live != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("silent worker never expired: %+v", coord.Stats())
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := coord.Stats()
	if st.Expiries != 1 || st.Leaves != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// Rejoining under the same name must succeed with a bumped generation.
	msgType, payload, conn2 := rawHello(t, coord.Addr().String(),
		Hello{MinVersion: 1, MaxVersion: 1, Name: "mute"})
	defer conn2.Close()
	if msgType != MsgWelcome {
		t.Fatalf("rejoin reply type %#x", msgType)
	}
	w2, err := DecodeWelcome(payload)
	if err != nil {
		t.Fatal(err)
	}
	if w2.Generation != 2 {
		t.Fatalf("rejoin generation = %d, want 2", w2.Generation)
	}
}

func TestFleetControlAndMetrics(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
		HeartbeatEvery: 20 * time.Millisecond,
		MetricsEvery:   30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	_, _, stopA := startWorker(t, coord, "alpha")
	defer stopA()
	_, _, stopB := startWorker(t, coord, "beta")
	defer stopB()
	if err := coord.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	workers := coord.Workers()
	if len(workers) != 2 || workers[0].Name != "alpha" || workers[1].Name != "beta" {
		t.Fatalf("workers = %+v", workers)
	}
	if workers[0].Topology != "tpc" || workers[0].QueueSize == 0 {
		t.Fatalf("hello inventory lost: %+v", workers[0])
	}

	// Remote engine: live snapshot over the wire.
	eng, err := coord.Engine("alpha")
	if err != nil {
		t.Fatal(err)
	}
	snap := eng.Snapshot()
	if len(snap.Tasks) == 0 {
		t.Fatal("remote snapshot empty")
	}
	for _, ts := range snap.Tasks {
		if ts.Topology != "tpc" {
			t.Fatalf("unexpected topology %q", ts.Topology)
		}
	}
	if eng.QueueSize() <= 0 {
		t.Fatalf("queue size = %d", eng.QueueSize())
	}

	// Remote grouping: ratios actuate on the worker's engine.
	if err := coord.Grouping("alpha", "work").SetRatios([]float64{1, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := coord.Grouping("alpha", "nosuch").SetRatios([]float64{1}); err == nil {
		t.Fatal("ratios for unknown component accepted")
	}

	// Remote fault injection against an engine-level worker id.
	if err := eng.InjectFault("worker-1", dsps.Fault{Slowdown: 3}); err != nil {
		t.Fatal(err)
	}
	if err := eng.ClearFault("worker-1"); err != nil {
		t.Fatal(err)
	}

	// Merged fleet snapshot: shipped metrics arrive prefixed per worker.
	deadline := time.Now().Add(5 * time.Second)
	for {
		merged := coord.Snapshot()
		prefixes := map[string]bool{}
		for _, ts := range merged.Tasks {
			prefixes[strings.SplitN(ts.Topology, "/", 2)[0]] = true
		}
		if prefixes["alpha"] && prefixes["beta"] {
			if len(merged.Components) == 0 || len(merged.Workers) == 0 {
				t.Fatalf("merged snapshot missing aggregates: %+v", merged)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("metrics never shipped from both workers: %v", prefixes)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Remote invariant check: pauses, drains, checks, resumes.
	drained, violations, err := coord.CheckInvariants("beta", 5*time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	if !drained {
		t.Fatal("beta did not drain")
	}
	if len(violations) != 0 {
		t.Fatalf("violations: %v", violations)
	}
}

func TestShutdownWorkersEndsRun(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	eng, _ := testEngine(t)
	defer eng.Shutdown()
	w, err := NewWorker(WorkerConfig{Name: "solo", Coordinator: coord.Addr().String(), Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var runErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		runErr = w.Run(context.Background())
	}()
	if err := coord.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	coord.ShutdownWorkers()
	wg.Wait()
	if !errors.Is(runErr, ErrShutdown) {
		t.Fatalf("Run = %v, want ErrShutdown", runErr)
	}
}

func TestWorkerCleanLeaveOnCancel(t *testing.T) {
	coord, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	_, _, stop := startWorker(t, coord, "brief")
	if err := coord.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatalf("cancelled Run = %v, want nil", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for coord.Stats().Live != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("leave not recorded: %+v", coord.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := coord.Stats(); st.CleanLeaves != 1 {
		t.Fatalf("stats = %+v, want one clean leave", st)
	}
}

// TestWorkerAnswersRetiredOpUnsupported drives the worker's unknown-op
// path: a fake coordinator welcomes the worker, then sends a command
// with the retired op 0x08, which must come back StatusUnsupported under
// the command's own ReqID.
func TestWorkerAnswersRetiredOpUnsupported(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	eng, _ := testEngine(t)
	defer eng.Shutdown()
	w, err := NewWorker(WorkerConfig{Name: "old", Coordinator: ln.Addr().String(), Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	defer func() {
		cancel()
		<-done
	}()

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if msgType, _, err := ReadFrame(conn); err != nil || msgType != MsgHello {
		t.Fatalf("first frame %#x, %v; want MsgHello", msgType, err)
	}
	welcome := Welcome{Version: 1, WorkerID: "w1", Generation: 1,
		HeartbeatEvery: time.Second, DeadAfter: 4 * time.Second, MetricsEvery: time.Second}
	if err := WriteFrame(conn, MsgWelcome, AppendWelcome(nil, welcome)); err != nil {
		t.Fatal(err)
	}
	const reqID = 0xbeef
	if err := WriteFrame(conn, MsgCommand, AppendCommand(nil, Command{ReqID: reqID, Op: 0x08})); err != nil {
		t.Fatal(err)
	}
	for {
		msgType, payload, err := ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if msgType != MsgResult {
			continue // heartbeats and metrics
		}
		res, err := DecodeResult(payload)
		if err != nil {
			t.Fatal(err)
		}
		if res.ReqID != reqID || res.Status != StatusUnsupported {
			t.Fatalf("result %+v, want ReqID %#x with StatusUnsupported", res, reqID)
		}
		return
	}
}
