package dsps

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingSpout emits the integers [0, limit) as tuples with msgIDs and
// records acks/fails.
type countingSpout struct {
	BaseSpout
	limit int

	collector SpoutCollector
	next      int
	acked     atomic.Int64
	failed    atomic.Int64
}

func (s *countingSpout) Open(_ TopologyContext, c SpoutCollector) { s.collector = c }

func (s *countingSpout) NextTuple() bool {
	if s.next >= s.limit {
		return false
	}
	s.collector.Emit(Values{s.next}, s.next)
	s.next++
	return true
}

func (s *countingSpout) Ack(any)  { s.acked.Add(1) }
func (s *countingSpout) Fail(any) { s.failed.Add(1) }

// taskTally is a shared, locked per-task counter for asserting how the
// engine spread tuples.
type taskTally struct {
	mu     sync.Mutex
	byTask map[int]int
}

func newTaskTally() *taskTally { return &taskTally{byTask: map[int]int{}} }

func (tt *taskTally) add(taskID int) {
	tt.mu.Lock()
	tt.byTask[taskID]++
	tt.mu.Unlock()
}

func (tt *taskTally) counts() map[int]int {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	out := make(map[int]int, len(tt.byTask))
	for k, v := range tt.byTask {
		out[k] = v
	}
	return out
}

// sinkBolt counts received tuples, optionally reporting into a shared
// tally.
type sinkBolt struct {
	BaseBolt
	mu    sync.Mutex
	count int
	tally *taskTally
	ctx   TopologyContext
}

func (b *sinkBolt) Prepare(ctx TopologyContext, _ OutputCollector) { b.ctx = ctx }

func (b *sinkBolt) Execute(*Tuple) {
	b.mu.Lock()
	b.count++
	b.mu.Unlock()
	if b.tally != nil {
		b.tally.add(b.ctx.TaskID)
	}
}

// testCluster builds a fast cluster for integration tests.
func testCluster(opts ...func(*ClusterConfig)) *Cluster {
	cfg := ClusterConfig{
		Nodes:        2,
		CoresPerNode: 4,
		QueueSize:    256,
		AckTimeout:   2 * time.Second,
		Delayer:      NopDelayer{},
		Seed:         42,
	}
	for _, o := range opts {
		o(&cfg)
	}
	return NewCluster(cfg)
}

func TestEndToEndCountsConserved(t *testing.T) {
	const n = 500
	spout := &countingSpout{limit: n}
	var sinks []*sinkBolt
	var mu sync.Mutex

	b := NewTopologyBuilder("conserve")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("sink", func() Bolt {
		s := &sinkBolt{}
		mu.Lock()
		sinks = append(sinks, s)
		mu.Unlock()
		return s
	}, 3).ShuffleGrouping("src")
	topo, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(5 * time.Second) {
		t.Fatal("did not drain")
	}
	total := 0
	mu.Lock()
	for _, s := range sinks {
		total += s.count
	}
	mu.Unlock()
	if total != n {
		t.Fatalf("sinks saw %d tuples, want %d", total, n)
	}
	snap := c.Snapshot()
	if got := snap.TotalAcked(); got != n {
		t.Fatalf("acked %d roots, want %d", got, n)
	}
	if got := snap.TotalFailed(); got != 0 {
		t.Fatalf("failed %d roots, want 0", got)
	}
	if got := spout.acked.Load(); got != n {
		t.Fatalf("spout saw %d acks, want %d", got, n)
	}
}

func TestShuffleSpreadsAcrossTasks(t *testing.T) {
	const n = 300
	tally := newTaskTally()
	b := NewTopologyBuilder("spread")
	b.SetSpout("src", func() Spout { return &countingSpout{limit: n} }, 1, "n")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{tally: tally} }, 3).ShuffleGrouping("src")
	topo, _ := b.Build()
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(5 * time.Second) {
		t.Fatal("did not drain")
	}
	byTask := tally.counts()
	if len(byTask) != 3 {
		t.Fatalf("tuples reached %d tasks, want 3", len(byTask))
	}
	for id, got := range byTask {
		if got != n/3 {
			t.Fatalf("task %d got %d, want %d", id, got, n/3)
		}
	}
}

// wordSpout emits words in a fixed cycle.
type wordSpout struct {
	BaseSpout
	words []string
	limit int

	collector SpoutCollector
	next      int
}

func (s *wordSpout) Open(_ TopologyContext, c SpoutCollector) { s.collector = c }
func (s *wordSpout) NextTuple() bool {
	if s.next >= s.limit {
		return false
	}
	s.collector.Emit(Values{s.words[s.next%len(s.words)]}, s.next)
	s.next++
	return true
}

// wordCounter counts words per instance.
type wordCounter struct {
	BaseBolt
	mu     sync.Mutex
	counts map[string]int
}

func (b *wordCounter) Prepare(TopologyContext, OutputCollector) {
	b.counts = map[string]int{}
}
func (b *wordCounter) Execute(t *Tuple) {
	w, err := t.String("word")
	if err != nil {
		return
	}
	b.mu.Lock()
	b.counts[w]++
	b.mu.Unlock()
}

func TestFieldsGroupingKeyAffinityThroughEngine(t *testing.T) {
	words := []string{"ant", "bee", "cat", "dog", "elk", "fox"}
	var counters []*wordCounter
	var mu sync.Mutex
	b := NewTopologyBuilder("wordcount")
	b.SetSpout("src", func() Spout { return &wordSpout{words: words, limit: 600} }, 1, "word")
	b.SetBolt("count", func() Bolt {
		wc := &wordCounter{}
		mu.Lock()
		counters = append(counters, wc)
		mu.Unlock()
		return wc
	}, 3).FieldsGrouping("src", "word")
	topo, _ := b.Build()
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(5 * time.Second) {
		t.Fatal("did not drain")
	}
	// Every word must be counted by exactly one instance, with the full
	// count (600/6 = 100 each).
	seen := map[string]int{}
	mu.Lock()
	defer mu.Unlock()
	for _, wc := range counters {
		wc.mu.Lock()
		for w, n := range wc.counts {
			if _, dup := seen[w]; dup {
				t.Fatalf("word %q counted by two instances", w)
			}
			seen[w] = n
		}
		wc.mu.Unlock()
	}
	for _, w := range words {
		if seen[w] != 100 {
			t.Fatalf("word %q count = %d, want 100", w, seen[w])
		}
	}
}

// relayBolt forwards every input downstream.
type relayBolt struct {
	BaseBolt
	collector OutputCollector
}

func (b *relayBolt) Prepare(_ TopologyContext, c OutputCollector) { b.collector = c }
func (b *relayBolt) Execute(t *Tuple)                             { b.collector.Emit(Values{t.Values[0]}) }

func TestMultiStageAckingCompletes(t *testing.T) {
	const n = 200
	spout := &countingSpout{limit: n}
	b := NewTopologyBuilder("chain")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("relay1", func() Bolt { return &relayBolt{} }, 2, "n").ShuffleGrouping("src")
	b.SetBolt("relay2", func() Bolt { return &relayBolt{} }, 2, "n").ShuffleGrouping("relay1")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("relay2")
	topo, _ := b.Build()
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(5 * time.Second) {
		t.Fatal("did not drain")
	}
	if got := spout.acked.Load(); got != n {
		t.Fatalf("acked %d, want %d", got, n)
	}
	if got := c.InFlight(); got != 0 {
		t.Fatalf("in flight = %d", got)
	}
	// Snapshot sanity: relay stages executed n each, sink n.
	snap := c.Snapshot()
	for _, comp := range []string{"relay1", "relay2", "sink"} {
		var total int64
		for _, ts := range snap.ComponentTasks(comp) {
			total += ts.Executed
		}
		if total != n {
			t.Fatalf("%s executed %d, want %d", comp, total, n)
		}
	}
}

// failNthBolt fails every k-th tuple.
type failNthBolt struct {
	BaseBolt
	k         int
	collector OutputCollector
	seen      atomic.Int64
}

func (b *failNthBolt) Prepare(_ TopologyContext, c OutputCollector) { b.collector = c }
func (b *failNthBolt) Execute(*Tuple) {
	if n := b.seen.Add(1); int(n)%b.k == 0 {
		b.collector.Fail()
	}
}

func TestExplicitFailReachesSpout(t *testing.T) {
	const n = 100
	spout := &countingSpout{limit: n}
	b := NewTopologyBuilder("failing")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("judge", func() Bolt { return &failNthBolt{k: 4} }, 1).ShuffleGrouping("src")
	topo, _ := b.Build()
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(5 * time.Second) {
		t.Fatal("did not drain")
	}
	if got := spout.failed.Load(); got != n/4 {
		t.Fatalf("spout failures = %d, want %d", got, n/4)
	}
	if got := spout.acked.Load(); got != n-n/4 {
		t.Fatalf("spout acks = %d, want %d", got, n-n/4)
	}
}

func TestDroppedTuplesFailByTimeout(t *testing.T) {
	const n = 50
	spout := &countingSpout{limit: n}
	b := NewTopologyBuilder("drops")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("src")
	topo, _ := b.Build()
	c := testCluster(func(cfg *ClusterConfig) { cfg.AckTimeout = 50 * time.Millisecond })
	if err := c.Submit(topo, SubmitConfig{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	worker := c.WorkerIDs()[0]
	if err := c.InjectFault(worker, Fault{Slowdown: 1, DropProb: 1}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for spout.failed.Load() < n && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := spout.failed.Load(); got != n {
		t.Fatalf("timed-out failures = %d, want %d", got, n)
	}
	snap := c.Snapshot()
	var dropped int64
	for _, ts := range snap.ComponentTasks("sink") {
		dropped += ts.Dropped
	}
	if dropped != n {
		t.Fatalf("dropped counter = %d, want %d", dropped, n)
	}
}

func TestFailProbFaultFailsImmediately(t *testing.T) {
	const n = 40
	spout := &countingSpout{limit: n}
	b := NewTopologyBuilder("failfast")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("src")
	topo, _ := b.Build()
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{Workers: 1}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.InjectFault(c.WorkerIDs()[0], Fault{Slowdown: 1, FailProb: 1}); err != nil {
		t.Fatal(err)
	}
	if !c.Drain(5 * time.Second) {
		t.Fatal("did not drain")
	}
	if got := spout.failed.Load(); got != n {
		t.Fatalf("failed = %d, want %d", got, n)
	}
}

func TestInjectFaultValidation(t *testing.T) {
	b := NewTopologyBuilder("v")
	b.SetSpout("src", func() Spout { return &countingSpout{limit: 1} }, 1, "n")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("src")
	topo, _ := b.Build()
	c := testCluster()
	if err := c.InjectFault("worker-0", Fault{Slowdown: 2}); err == nil {
		t.Fatal("fault before submit should error")
	}
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if err := c.InjectFault("nope", Fault{Slowdown: 2}); err == nil {
		t.Fatal("unknown worker should error")
	}
	w := c.WorkerIDs()[0]
	for _, bad := range []Fault{
		{Slowdown: 0.5},
		{Slowdown: 1, DropProb: -0.1},
		{Slowdown: 1, DropProb: 1.5},
		{Slowdown: 1, FailProb: 2},
	} {
		if err := c.InjectFault(w, bad); err == nil {
			t.Fatalf("fault %+v accepted", bad)
		}
	}
	if err := c.InjectFault(w, Fault{Slowdown: 4}); err != nil {
		t.Fatal(err)
	}
	snap := c.Snapshot()
	ws, ok := snap.WorkerByID(w)
	if !ok || !ws.Misbehaving || ws.Slowdown != 4 {
		t.Fatalf("worker stats = %+v", ws)
	}
	c.ClearFault(w)
	ws, _ = c.Snapshot().WorkerByID(w)
	if ws.Misbehaving {
		t.Fatal("fault not cleared")
	}
}

func TestSubmitTwiceFails(t *testing.T) {
	mk := func() *Topology {
		b := NewTopologyBuilder("t")
		b.SetSpout("src", func() Spout { return &countingSpout{limit: 1} }, 1, "n")
		b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("src")
		topo, _ := b.Build()
		return topo
	}
	c := testCluster()
	if err := c.Submit(mk(), SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(mk(), SubmitConfig{}); err == nil {
		t.Fatal("second submit should fail")
	}
	c.Shutdown()
	// After shutdown a new topology can run.
	if err := c.Submit(mk(), SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
}

func TestSchedulerPlacement(t *testing.T) {
	b := NewTopologyBuilder("place")
	b.SetSpout("src", func() Spout { return &countingSpout{limit: 1} }, 2, "n")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 4).ShuffleGrouping("src")
	topo, _ := b.Build()
	c := testCluster() // 2 nodes
	if err := c.Submit(topo, SubmitConfig{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if got := len(c.WorkerIDs()); got != 3 {
		t.Fatalf("%d workers, want 3", got)
	}
	snap := c.Snapshot()
	// 6 tasks over 3 workers round-robin → 2 each.
	perWorker := map[string]int{}
	for _, ts := range snap.Tasks {
		perWorker[ts.WorkerID]++
	}
	for w, n := range perWorker {
		if n != 2 {
			t.Fatalf("worker %s has %d tasks, want 2", w, n)
		}
	}
	// Workers round-robin over the 2 nodes → nodes have 2 and 1 workers.
	counts := map[string]int{}
	for _, ns := range snap.Nodes {
		counts[ns.NodeID] = len(ns.Workers)
	}
	if counts["node-0"] != 2 || counts["node-1"] != 1 {
		t.Fatalf("node worker counts = %v", counts)
	}
}

func TestDynamicGroupingEndToEnd(t *testing.T) {
	const n = 1000
	b := NewTopologyBuilder("dyn")
	b.SetSpout("src", func() Spout { return &countingSpout{limit: n} }, 1, "n")
	dg := b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 2).DynamicGrouping("src")
	if err := dg.SetRatios([]float64{0.8, 0.2}); err != nil {
		t.Fatal(err)
	}
	topo, _ := b.Build()
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(5 * time.Second) {
		t.Fatal("did not drain")
	}
	snap := c.Snapshot()
	tasks := snap.ComponentTasks("sink")
	if len(tasks) != 2 {
		t.Fatalf("%d sink tasks", len(tasks))
	}
	if tasks[0].Executed != 800 || tasks[1].Executed != 200 {
		t.Fatalf("split = %d/%d, want 800/200", tasks[0].Executed, tasks[1].Executed)
	}
}

// ackLogSpout is countingSpout that also counts the acks of each msgID.
type ackLogSpout struct {
	countingSpout
	mu    sync.Mutex
	byMsg map[any]int
}

func (s *ackLogSpout) Ack(id any) {
	s.mu.Lock()
	s.byMsg[id]++
	s.mu.Unlock()
	s.countingSpout.Ack(id)
}

// TestFanOutToEverySubscriber subscribes three bolts to one spout: every
// root leaves on three edges, one per subscriber, so each bolt sees every
// tuple and each root is acked once, after all three edges complete.
func TestFanOutToEverySubscriber(t *testing.T) {
	const n = 100
	spout := &ackLogSpout{countingSpout: countingSpout{limit: n}, byMsg: map[any]int{}}
	b := NewTopologyBuilder("fan-out")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	sinks := []string{"a", "b", "c"}
	for _, name := range sinks {
		b.SetBolt(name, func() Bolt { return &sinkBolt{} }, 2).ShuffleGrouping("src")
	}
	topo, _ := b.Build()
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(5 * time.Second) {
		t.Fatal("did not drain")
	}
	snap := c.Snapshot()
	for _, name := range sinks {
		var executed int64
		for _, ts := range snap.ComponentTasks(name) {
			executed += ts.Executed
		}
		if executed != n {
			t.Fatalf("bolt %s executed %d tuples, want %d", name, executed, n)
		}
	}
	if got := snap.TotalAcked(); got != n {
		t.Fatalf("acked %d roots, want %d", got, n)
	}
	spout.mu.Lock()
	defer spout.mu.Unlock()
	for i := 0; i < n; i++ {
		if got := spout.byMsg[i]; got != 1 {
			t.Fatalf("root %d acked %d times, want 1", i, got)
		}
	}
	if spout.failed.Load() != 0 {
		t.Fatalf("%d roots failed", spout.failed.Load())
	}
}

func TestInterferenceInflatesExecLatency(t *testing.T) {
	// One node, one core, several parallel tasks with a real simulated
	// cost: the executors overlap in time, the node is oversubscribed, and
	// the recorded exec latency must exceed the base cost.
	const n = 400
	base := 200 * time.Microsecond
	b := NewTopologyBuilder("interf")
	b.SetSpout("src", func() Spout { return &countingSpout{limit: n} }, 1, "n")
	b.SetBolt("work", func() Bolt { return &sinkBolt{} }, 4).
		ShuffleGrouping("src").
		WithExecCost(base)
	topo, _ := b.Build()
	c := testCluster(func(cfg *ClusterConfig) {
		cfg.Nodes = 1
		cfg.CoresPerNode = 1
		cfg.Delayer = RealDelayer{}
	})
	if err := c.Submit(topo, SubmitConfig{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(10 * time.Second) {
		t.Fatal("did not drain")
	}
	snap := c.Snapshot()
	var totalExec, totalLat int64
	for _, ts := range snap.ComponentTasks("work") {
		totalExec += ts.Executed
		totalLat += int64(ts.ExecLatency)
	}
	if totalExec != n {
		t.Fatalf("executed %d, want %d", totalExec, n)
	}
	avg := time.Duration(totalLat / totalExec)
	if avg <= base {
		t.Fatalf("avg exec latency %v not inflated above base %v", avg, base)
	}
}

func TestSnapshotHelpers(t *testing.T) {
	b := NewTopologyBuilder("snap")
	b.SetSpout("src", func() Spout { return &countingSpout{limit: 10} }, 1, "n")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("src")
	topo, _ := b.Build()
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(5 * time.Second) {
		t.Fatal("did not drain")
	}
	snap := c.Snapshot()
	if _, ok := snap.TaskByID(0); !ok {
		t.Fatal("task 0 missing")
	}
	if _, ok := snap.TaskByID(999); ok {
		t.Fatal("phantom task found")
	}
	if _, ok := snap.WorkerByID("ghost"); ok {
		t.Fatal("phantom worker found")
	}
	spoutStats := snap.ComponentTasks("src")[0]
	if spoutStats.Acked != 10 {
		t.Fatalf("spout acked = %d", spoutStats.Acked)
	}
	if spoutStats.AvgCompleteLatency() <= 0 {
		t.Fatal("complete latency not measured")
	}
	// Shutdown then snapshot: empty but non-nil.
	c.Shutdown()
	empty := c.Snapshot()
	if len(empty.Tasks) != 0 {
		t.Fatal("snapshot after shutdown should be empty")
	}
}

func TestPauseResumeSpouts(t *testing.T) {
	spout := &countingSpout{limit: 1 << 30}
	b := NewTopologyBuilder("pause")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("src")
	topo, _ := b.Build()
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	time.Sleep(20 * time.Millisecond)
	c.PauseSpouts()
	c.Drain(2 * time.Second)
	before := c.Snapshot().TotalAcked()
	time.Sleep(30 * time.Millisecond)
	after := c.Snapshot().TotalAcked()
	if after != before {
		t.Fatalf("acks advanced while paused: %d -> %d", before, after)
	}
	c.ResumeSpouts()
	deadline := time.Now().Add(2 * time.Second)
	for c.Snapshot().TotalAcked() == after && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if c.Snapshot().TotalAcked() == after {
		t.Fatal("no progress after resume")
	}
}

func TestUnanchoredEmissionSkipsAcker(t *testing.T) {
	// msgID nil → no reliability tracking, tuples still delivered.
	var spoutC SpoutCollector
	emitted := 0
	sp := &SpoutFunc{
		OpenFn: func(_ TopologyContext, c SpoutCollector) { spoutC = c },
		NextFn: func() bool {
			if emitted >= 50 {
				return false
			}
			spoutC.Emit(Values{emitted}, nil)
			emitted++
			return true
		},
	}
	b := NewTopologyBuilder("unanchored")
	b.SetSpout("src", func() Spout { return sp }, 1, "n")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("src")
	topo, _ := b.Build()
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(5 * time.Second) {
		t.Fatal("did not drain")
	}
	snap := c.Snapshot()
	if got := snap.ComponentTasks("sink")[0].Executed; got != 50 {
		t.Fatalf("sink executed %d, want 50", got)
	}
	if got := snap.TotalAcked(); got != 0 {
		t.Fatalf("unanchored run acked %d", got)
	}
}

func TestSpoutWithNoSubscribersAcksImmediately(t *testing.T) {
	spout := &countingSpout{limit: 20}
	b := NewTopologyBuilder("lonely")
	b.SetSpout("src", func() Spout { return spout }, 1, "n")
	// A bolt on an unrelated spout keeps the topology valid.
	b.SetSpout("other", func() Spout { return &countingSpout{limit: 0} }, 1, "n")
	b.SetBolt("sink", func() Bolt { return &sinkBolt{} }, 1).ShuffleGrouping("other")
	topo, _ := b.Build()
	c := testCluster()
	if err := c.Submit(topo, SubmitConfig{}); err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	if !c.Drain(5 * time.Second) {
		t.Fatal("did not drain")
	}
	if got := spout.acked.Load(); got != 20 {
		t.Fatalf("subscriber-less spout acked %d, want 20", got)
	}
}

// WorkerByID returns the stats of one worker, or a zero value and false.
func (s *Snapshot) WorkerByID(id string) (WorkerStats, bool) {
	for _, w := range s.Workers {
		if w.WorkerID == id {
			return w, true
		}
	}
	return WorkerStats{}, false
}
