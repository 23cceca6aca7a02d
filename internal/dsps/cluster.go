package dsps

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// ClusterConfig sizes the simulated cluster. Zero fields take the noted
// defaults.
type ClusterConfig struct {
	// Nodes is the number of simulated machines; default 3.
	Nodes int
	// CoresPerNode sets each machine's capacity for the interference
	// model, which inflates service cost by a factor of
	// 1 + max(0, busy-cores)/cores; default 4.
	CoresPerNode int
	// QueueSize bounds each executor's input queue; default 1024.
	QueueSize int
	// AckTimeout fails spout roots not completed in time; default 5s.
	AckTimeout time.Duration
	// MaxSpoutPending caps un-acked roots per spout task (like Storm's
	// topology.max.spout.pending); default 4096.
	MaxSpoutPending int
	// Seed drives all engine randomness; default 1.
	Seed int64
	// Delayer models service time; default RealDelayer.
	Delayer Delayer
	// Rings switches the engine to the lock-free data plane (data plane
	// v2): every producer→bolt hand-off uses a bounded SPSC ring of
	// QueueSize batch slots instead of a shared input channel. False (the
	// default) keeps the channel plane. Both planes share one acker.
	Rings bool
	// TraceSampleRate enables sampled per-tuple path tracing: the fraction
	// of anchored roots (by deterministic splitmix64 hash of the rootID)
	// whose spout→bolt span chains are recorded. 0 (the default) disables
	// tracing entirely — the hot path then pays only a nil check.
	TraceSampleRate float64
	// TraceBufferSize is the trace ring capacity in spans; default 4096
	// when tracing is enabled.
	TraceBufferSize int
	// Events receives structured control-plane events (submits,
	// rebalances, fault injections); nil disables event emission.
	Events EventSink
}

// Data-plane constants (DESIGN.md › Data plane).
const (
	// batchSize caps how many envelopes ride one data-plane batch; the
	// effective size is clamped to QueueSize.
	batchSize = 32
	// flushInterval bounds how long a partially filled spout output batch
	// may wait before it is flushed downstream. It stays well under Drain's
	// 20ms settle window so quiescence detection stays sound.
	flushInterval = time.Millisecond
)

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.Nodes <= 0 {
		c.Nodes = 3
	}
	if c.CoresPerNode <= 0 {
		c.CoresPerNode = 4
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 1024
	}
	if c.AckTimeout <= 0 {
		c.AckTimeout = 5 * time.Second
	}
	if c.MaxSpoutPending <= 0 {
		c.MaxSpoutPending = 4096
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Delayer == nil {
		c.Delayer = RealDelayer{}
	}
	return c
}

// node is one simulated machine.
type node struct {
	id       string
	cores    int
	busy     atomic.Int64 // executors currently mid-execute
	executed atomic.Int64
}

// workerProc is one simulated worker process (a group of executors
// co-located on a node, like a Storm worker JVM).
type workerProc struct {
	id   string
	node *node
}

// PlacementStrategy selects how the scheduler assigns executors to
// workers.
type PlacementStrategy string

const (
	// PlaceRoundRobin interleaves tasks across workers (Storm's even
	// scheduler): each worker hosts a slice of every stage. Default.
	PlaceRoundRobin PlacementStrategy = "roundrobin"
	// PlaceBlocked assigns contiguous task blocks per worker: stages end
	// up concentrated on fewer workers, maximizing co-location — the
	// placement that stresses the interference model hardest.
	PlaceBlocked PlacementStrategy = "blocked"
)

// SubmitConfig controls topology placement.
type SubmitConfig struct {
	// Workers is the number of worker processes; default = cluster nodes.
	Workers int
	// Strategy selects the scheduler; default PlaceRoundRobin.
	Strategy PlacementStrategy
}

// Cluster hosts running topologies on a set of simulated nodes, playing
// the role Storm's Nimbus + supervisors play for the control framework.
// Multiple topologies share the nodes, so their workers interfere with
// each other through node capacity — the co-location scenario the paper's
// DRNN models.
type Cluster struct {
	cfg    ClusterConfig
	nodes  []*node
	faults *faultRegistry
	trace  *Trace
	events EventSink

	mu         sync.Mutex
	tops       []*runningTopology
	nextWorker int
	nextTask   int
}

// NewCluster builds a cluster with the given configuration.
func NewCluster(cfg ClusterConfig) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{cfg: cfg, faults: newFaultRegistry(), events: cfg.Events}
	if cfg.TraceSampleRate > 0 {
		c.trace = newTrace(cfg.TraceSampleRate, cfg.TraceBufferSize)
	}
	for i := 0; i < cfg.Nodes; i++ {
		c.nodes = append(c.nodes, &node{
			id:    fmt.Sprintf("node-%d", i),
			cores: cfg.CoresPerNode,
		})
	}
	return c
}

// Trace returns the cluster's sampled-tuple trace ring, or nil when
// ClusterConfig.TraceSampleRate is zero.
func (c *Cluster) Trace() *Trace { return c.trace }

// emit forwards one structured event to the configured sink, if any.
// Never called with cluster locks held.
func (c *Cluster) emit(level int, msg string, kv ...string) {
	if c.events != nil {
		c.events.Event(level, msg, kv...)
	}
}

// Config returns the effective (defaulted) cluster configuration.
func (c *Cluster) Config() ClusterConfig { return c.cfg }

// QueueSize returns the effective per-executor input-queue bound. It
// exists so control planes that only see the engine through an interface
// (local or remote transport) can read the one configuration value the
// planners need without shipping the whole ClusterConfig across a wire.
func (c *Cluster) QueueSize() int { return c.cfg.QueueSize }

// NodeIDs returns the simulated machine ids.
func (c *Cluster) NodeIDs() []string {
	out := make([]string, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.id
	}
	return out
}

// Submit schedules and starts a topology alongside any already running.
// Topology names must be unique among running topologies.
func (c *Cluster) Submit(t *Topology, sc SubmitConfig) error {
	workers, err := c.submitLocked(t, sc)
	if err != nil {
		return err
	}
	c.emit(EventInfo, "topology submitted",
		"topology", t.Name, "workers", strconv.Itoa(workers))
	return nil
}

// submitLocked does the schedule-and-start under the cluster lock and
// returns the effective worker count, so Submit can emit its event with
// the lock released.
func (c *Cluster) submitLocked(t *Topology, sc SubmitConfig) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, rt := range c.tops {
		if rt.topo.Name == t.Name {
			return 0, fmt.Errorf("dsps: topology %q already running", t.Name)
		}
	}
	if sc.Workers <= 0 {
		sc.Workers = len(c.nodes)
	}
	switch sc.Strategy {
	case "", PlaceRoundRobin, PlaceBlocked:
	default:
		return 0, fmt.Errorf("dsps: unknown placement strategy %q", sc.Strategy)
	}
	rt, err := c.buildRuntime(t, sc)
	if err != nil {
		return 0, err
	}
	c.tops = append(c.tops, rt)
	rt.start()
	return sc.Workers, nil
}

// Topologies returns the names of running topologies in submit order.
func (c *Cluster) Topologies() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.tops))
	for i, rt := range c.tops {
		out[i] = rt.topo.Name
	}
	return out
}

// snapshotTops returns the current topology list.
func (c *Cluster) snapshotTops() []*runningTopology {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*runningTopology, len(c.tops))
	copy(out, c.tops)
	return out
}

// WorkerIDs returns the worker process ids of every running topology in
// scheduling order.
func (c *Cluster) WorkerIDs() []string {
	var out []string
	for _, rt := range c.snapshotTops() {
		for _, w := range rt.workers {
			out = append(out, w.id)
		}
	}
	return out
}

// TopologyWorkerIDs returns one topology's worker ids, or nil if it is
// not running.
func (c *Cluster) TopologyWorkerIDs(name string) []string {
	for _, rt := range c.snapshotTops() {
		if rt.topo.Name != name {
			continue
		}
		out := make([]string, len(rt.workers))
		for i, w := range rt.workers {
			out[i] = w.id
		}
		return out
	}
	return nil
}

// InjectFault applies a fault to a worker at runtime.
func (c *Cluster) InjectFault(workerID string, f Fault) error {
	if !c.workerExists(workerID) {
		return fmt.Errorf("dsps: unknown worker %q", workerID)
	}
	if err := c.faults.set(workerID, f); err != nil {
		return err
	}
	c.emit(EventWarn, "fault injected",
		"worker", workerID,
		"slowdown", strconv.FormatFloat(f.Slowdown, 'g', -1, 64),
		"drop_prob", strconv.FormatFloat(f.DropProb, 'g', -1, 64),
		"fail_prob", strconv.FormatFloat(f.FailProb, 'g', -1, 64),
		"stall", strconv.FormatBool(f.Stall))
	return nil
}

// ClearFault removes any fault on a worker.
func (c *Cluster) ClearFault(workerID string) {
	c.faults.clear(workerID)
	c.emit(EventInfo, "fault cleared", "worker", workerID)
}

func (c *Cluster) workerExists(workerID string) bool {
	for _, rt := range c.snapshotTops() {
		for _, w := range rt.workers {
			if w.id == workerID {
				return true
			}
		}
	}
	return false
}

// PauseSpouts stops every topology's spouts from emitting new tuples
// (in-flight tuples continue draining).
func (c *Cluster) PauseSpouts() {
	for _, rt := range c.snapshotTops() {
		rt.spoutsPaused.Store(true)
	}
}

// ResumeSpouts re-enables spout emission everywhere.
func (c *Cluster) ResumeSpouts() {
	for _, rt := range c.snapshotTops() {
		rt.spoutsPaused.Store(false)
	}
}

// Drain waits until every topology is stably quiescent — every queue
// empty, no root in flight, and no counter progress for a settle window —
// or the timeout elapses, and reports whether it drained. Spouts are not
// paused: finite spouts drain naturally once exhausted; callers with
// unbounded or rate-limited spouts should PauseSpouts first, otherwise
// Drain can only time out (or return between widely spaced emissions).
// After a successful drain of a finite workload, counters satisfy exact
// conservation invariants.
func (c *Cluster) Drain(timeout time.Duration) bool {
	tops := c.snapshotTops()
	if len(tops) == 0 {
		return true
	}
	quiescent := func() bool {
		for _, rt := range tops {
			if !rt.quiescent() {
				return false
			}
		}
		return true
	}
	progress := func() int64 {
		var total int64
		for _, rt := range tops {
			total += rt.progress()
		}
		return total
	}
	const settle = 20 * time.Millisecond
	deadline := time.Now().Add(timeout)
	lastProgress := int64(-1)
	var stableSince time.Time
	for time.Now().Before(deadline) {
		if quiescent() {
			p := progress()
			now := time.Now()
			if p != lastProgress {
				lastProgress = p
				stableSince = now
			} else if now.Sub(stableSince) >= settle {
				return true
			}
		} else {
			lastProgress = -1
		}
		time.Sleep(time.Millisecond)
	}
	return quiescent()
}

// ShutdownTopology stops one topology by name, waiting for its executors
// to exit.
func (c *Cluster) ShutdownTopology(name string) error {
	c.mu.Lock()
	var victim *runningTopology
	for i, rt := range c.tops {
		if rt.topo.Name == name {
			victim = rt
			c.tops = append(c.tops[:i], c.tops[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	if victim == nil {
		return fmt.Errorf("dsps: topology %q not running", name)
	}
	victim.stop()
	c.emit(EventInfo, "topology shutdown", "topology", name)
	return nil
}

// Rebalance stops one topology and resubmits it with a new placement
// (worker count and/or strategy), mirroring Storm's rebalance command.
// In-flight tuples are given drainTimeout to complete (spouts are paused
// for the drain; un-drained tuples are lost exactly as in Storm's
// stop-the-world rebalance). Groupings — including dynamic-grouping
// handles held by a controller — belong to the Topology and survive the
// resubmission.
func (c *Cluster) Rebalance(name string, sc SubmitConfig, drainTimeout time.Duration) error {
	c.mu.Lock()
	var victim *runningTopology
	for _, rt := range c.tops {
		if rt.topo.Name == name {
			victim = rt
			break
		}
	}
	c.mu.Unlock()
	if victim == nil {
		return fmt.Errorf("dsps: topology %q not running", name)
	}
	victim.spoutsPaused.Store(true)
	if drainTimeout > 0 {
		deadline := time.Now().Add(drainTimeout)
		for time.Now().Before(deadline) && !victim.quiescent() {
			time.Sleep(time.Millisecond)
		}
	}
	if err := c.ShutdownTopology(name); err != nil {
		return err
	}
	if err := c.Submit(victim.topo, sc); err != nil {
		return err
	}
	c.emit(EventInfo, "topology rebalanced",
		"topology", name, "strategy", string(sc.Strategy))
	return nil
}

// Shutdown stops every running topology, waiting for executors to exit.
func (c *Cluster) Shutdown() {
	c.mu.Lock()
	tops := c.tops
	c.tops = nil
	c.mu.Unlock()
	for _, rt := range tops {
		rt.stop()
	}
}

// Snapshot captures the current metrics of every running topology. It is
// safe to call concurrently with execution.
func (c *Cluster) Snapshot() *Snapshot {
	tops := c.snapshotTops()
	snap := &Snapshot{At: time.Now()}
	perWorker := map[string]*WorkerStats{}
	var workerOrder []string
	for _, rt := range tops {
		for _, w := range rt.workers {
			ws := &WorkerStats{WorkerID: w.id, NodeID: w.node.id, Slowdown: 1}
			if f, ok := c.faults.get(w.id); ok {
				ws.Slowdown = f.Slowdown
				ws.Misbehaving = true
			}
			perWorker[w.id] = ws
			workerOrder = append(workerOrder, w.id)
		}
		rt.tasksMu.RLock()
		stats := make([]TaskStats, 0, len(rt.tasks)+len(rt.retired))
		for _, t := range rt.tasks {
			stats = append(stats, rt.taskStats(t))
		}
		// Retired (scaled-down) tasks keep their frozen counters in the
		// snapshot so per-task series stay monotone and component/worker
		// aggregates remain comparable across scale events.
		stats = append(stats, rt.retired...)
		rt.tasksMu.RUnlock()
		for _, ts := range stats {
			snap.Tasks = append(snap.Tasks, ts)
			ws := perWorker[ts.WorkerID]
			ws.Tasks = append(ws.Tasks, ts)
			ws.Executed += ts.Executed
			ws.Emitted += ts.Emitted
			ws.ExecLatency += ts.ExecLatency
			ws.QueueLen += ts.QueueLen
		}
		snap.Scale = append(snap.Scale, ScaleStats{
			Topology:   rt.topo.Name,
			Ups:        rt.scaleUps.Load(),
			Downs:      rt.scaleDowns.Load(),
			RouteEpoch: rt.routeEpoch.Load(),
			Retired:    countRetired(stats),
		})
		snap.Acker = append(snap.Acker, AckerStats{
			Topology: rt.topo.Name,
			InFlight: rt.acker.inFlight(),
		})
	}
	for _, id := range workerOrder {
		snap.Workers = append(snap.Workers, *perWorker[id])
	}
	for _, n := range c.nodes {
		ns := NodeStats{
			NodeID:   n.id,
			Cores:    n.cores,
			Executed: n.executed.Load(),
			Busy:     int(n.busy.Load()),
		}
		for _, id := range workerOrder {
			if perWorker[id].NodeID == n.id {
				ns.Workers = append(ns.Workers, id)
			}
		}
		snap.Nodes = append(snap.Nodes, ns)
	}
	snap.Components = buildComponentStats(snap.Tasks)
	return snap
}

// taskStats captures one task's counters. Callers hold rt.tasksMu (any
// side) or otherwise own the task (retireTask, after the executor exited).
func (rt *runningTopology) taskStats(t *task) TaskStats {
	ts := TaskStats{
		TaskID:          t.id,
		Topology:        rt.topo.Name,
		Component:       t.component,
		TaskIndex:       t.index,
		WorkerID:        t.worker.id,
		NodeID:          t.worker.node.id,
		IsSpout:         t.spout != nil,
		Executed:        t.counters.executed.Load(),
		Emitted:         t.counters.emitted.Load(),
		Acked:           t.counters.acked.Load(),
		Failed:          t.counters.failed.Load(),
		Dropped:         t.counters.dropped.Load(),
		ExecLatency:     time.Duration(t.counters.execNanos.Load()),
		QueueLatency:    time.Duration(t.counters.queueNanos.Load()),
		CompleteLatency: time.Duration(t.counters.completeNs.Load()),
		ExecHist:        t.counters.execHist.snapshot(),
		CompleteHist:    t.counters.completeHist.snapshot(),

		Batches:           t.counters.batches.Load(),
		BackpressureWaits: t.counters.bpWaits.Load(),
	}
	if t.bolt != nil {
		// queued is reservation-accurate: 0 ≤ queued ≤ QueueSize, on
		// either data plane.
		ts.QueueLen = int(t.queued.Load())
		ts.RingDepth = t.ringDepth()
		ts.RingParks = t.counters.ringParks.Load()
	}
	return ts
}

func countRetired(stats []TaskStats) int {
	n := 0
	for _, ts := range stats {
		if ts.Retired {
			n++
		}
	}
	return n
}

// InFlight returns the number of tracked spout roots, across every
// topology, whose completion has not yet been handed back to their spout.
func (c *Cluster) InFlight() int {
	total := 0
	for _, rt := range c.snapshotTops() {
		total += rt.acker.inFlight()
	}
	return total
}
