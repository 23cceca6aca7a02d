package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"testing"
	"time"

	"predstream/internal/chaos"
	"predstream/internal/dsps"
)

// The process-level tests re-exec this test binary as real worker
// processes: TestMain detects the env var and runs a worker instead of
// the test suite, so kill/SIGSTOP chaos hits genuine OS processes without
// building cmd/predworker first.
const (
	workerEnvName  = "PREDSTREAM_CLUSTER_WORKER"
	workerEnvCoord = "PREDSTREAM_CLUSTER_COORD"
)

func TestMain(m *testing.M) {
	if name := os.Getenv(workerEnvName); name != "" {
		workerProcessMain(name, os.Getenv(workerEnvCoord))
		return
	}
	os.Exit(m.Run())
}

// workerProcessMain is the child-process entry: build an engine, join the
// coordinator, and serve until shutdown.
func workerProcessMain(name, coordAddr string) {
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
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	eng := dsps.NewCluster(dsps.ClusterConfig{Seed: 5, AckTimeout: 5 * time.Second})
	if err := eng.Submit(topo, dsps.SubmitConfig{Workers: 3}); err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	w, err := NewWorker(WorkerConfig{
		Name:        name,
		Coordinator: coordAddr,
		Engine:      eng,
		Topology:    "tpc",
		Groupings:   map[string]*dsps.DynamicGrouping{"work": dg},
		Spouts:      []string{"src"},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	err = w.Run(context.Background())
	eng.Shutdown()
	if err != nil && !errors.Is(err, ErrShutdown) {
		fmt.Fprintln(os.Stderr, "worker:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

// workerProcs builds a ProcSet of n re-exec'd worker processes named
// proc-0..proc-(n-1), joined to coordAddr.
func workerProcs(n int, coordAddr string) *ProcSet {
	ps := &ProcSet{}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("proc-%d", i)
		ps.Add(name, func() *exec.Cmd {
			cmd := exec.Command(os.Args[0])
			cmd.Env = append(os.Environ(),
				workerEnvName+"="+name,
				workerEnvCoord+"="+coordAddr)
			return cmd
		})
	}
	return ps
}

// TestProcessCrashAndRejoin is the acceptance scenario: a seeded chaos
// schedule kills, freezes, and restarts real worker OS processes, and
// afterwards the whole fleet is live again, membership accounting
// balances, rejoined workers carry bumped generations, and every worker's
// engine passes its invariants (tuple conservation, acker quiescence)
// in-process.
func TestProcessCrashAndRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real worker processes")
	}
	coord, err := NewCoordinator("127.0.0.1:0", CoordinatorConfig{
		HeartbeatEvery: 50 * time.Millisecond,
		DeadAfter:      300 * time.Millisecond,
		MetricsEvery:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	const procs = 2
	ps := workerProcs(procs, coord.Addr().String())
	defer ps.Close()
	if err := ps.Start(); err != nil {
		t.Fatal(err)
	}
	if err := coord.WaitForWorkers(procs, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// Seed 8 yields a schedule exercising every disruption: a kill and
	// mid-run restart of proc-0, a freeze of proc-0, a kill of proc-1, and
	// the guaranteed horizon restores (thaw + restart).
	const seed = 8
	script := chaos.GenerateProc(seed, chaos.ProcGenConfig{
		Events:  4,
		Horizon: 1500 * time.Millisecond,
		Procs:   procs,
		Freeze:  true,
	})
	t.Logf("proc script (seed %d): %v", seed, script.Events)
	kinds := map[chaos.ProcKind]int{}
	for _, ev := range script.Events {
		kinds[ev.Kind]++
	}
	if kinds[chaos.ProcKill] == 0 || kinds[chaos.ProcFreeze] == 0 || kinds[chaos.ProcRestart] == 0 {
		t.Fatalf("schedule does not cover kill+restart+freeze: %v", script.Events)
	}
	rep := chaos.RunProc(ps, script, chaos.ProcRunOptions{})
	if rep.Fired == 0 {
		t.Fatalf("no events fired: %+v", rep)
	}
	for _, e := range rep.Errors {
		t.Errorf("controller error: %s", e)
	}

	// The generated schedule ends with the fleet whole; give restarted and
	// thawed processes time to rejoin.
	if err := coord.WaitForWorkers(procs, 10*time.Second); err != nil {
		t.Fatalf("fleet not whole after chaos: %v (stats %+v)", err, coord.Stats())
	}

	// Membership accounting must balance exactly.
	st := coord.Stats()
	if st.Joins != st.Leaves+st.Live {
		t.Fatalf("membership imbalance: %+v", st)
	}
	disrupted := map[int]bool{}
	for _, ev := range script.Events {
		if ev.Kind == chaos.ProcKill || ev.Kind == chaos.ProcFreeze {
			disrupted[ev.Proc] = true
		}
	}
	for i := 0; i < procs; i++ {
		name := fmt.Sprintf("proc-%d", i)
		gen := coord.Generation(name)
		if disrupted[i] && gen < 2 {
			t.Errorf("%s was disrupted but generation = %d", name, gen)
		}
		if gen < 1 {
			t.Errorf("%s never joined", name)
		}
	}

	// Every worker's engine must still satisfy the invariants, checked
	// inside its own process.
	for i := 0; i < procs; i++ {
		name := fmt.Sprintf("proc-%d", i)
		drained, violations, err := coord.CheckInvariants(name, 8*time.Second, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !drained {
			t.Errorf("%s did not drain", name)
		}
		for _, v := range violations {
			t.Errorf("%s: invariant violation: %s", name, v)
		}
	}

	// Graceful teardown: shutdown over the wire, processes exit 0.
	coord.ShutdownWorkers()
	for i := 0; i < procs; i++ {
		if err := ps.WaitExit(i, 10*time.Second); err != nil {
			t.Error(err)
		}
	}
}

// TestProcScriptDeterminism pins that (seed, cfg) fully determines a
// process-chaos schedule — the reproducibility contract shared with
// chaos.Generate.
func TestProcScriptDeterminism(t *testing.T) {
	cfg := chaos.ProcGenConfig{Events: 6, Horizon: time.Second, Procs: 3, Freeze: true}
	a := chaos.GenerateProc(99, cfg)
	b := chaos.GenerateProc(99, cfg)
	if len(a.Events) != len(b.Events) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("event %d differs: %v vs %v", i, a.Events[i], b.Events[i])
		}
	}
	// The schedule must leave every process up: equal kills/restarts and
	// freezes/thaws per process.
	state := map[int]int{}
	for _, ev := range a.Events {
		switch ev.Kind {
		case chaos.ProcKill:
			state[ev.Proc] = 1
		case chaos.ProcFreeze:
			state[ev.Proc] = 2
		case chaos.ProcRestart, chaos.ProcThaw:
			state[ev.Proc] = 0
		}
	}
	for p, s := range state {
		if s != 0 {
			t.Fatalf("schedule leaves proc %d in state %d: %v", p, s, a.Events)
		}
	}
}
