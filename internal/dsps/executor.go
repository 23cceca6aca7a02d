package dsps

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"predstream/internal/ring"
)

// edge is one subscription: tuples from source fan out via grouping to the
// ordered target tasks. The target list is a copy-on-write snapshot so a
// scale event can splice in (or out) executors while producers keep
// routing: readers load the pointer once and see a consistent, index-
// sorted list; splicers publish a fresh list under the topology's splice
// lock and bump the route epoch (see runningTopology.splice).
type edge struct {
	grouping   Grouping
	source     string // producing component
	targetComp string // consuming component
	targets    atomic.Pointer[[]*task]
}

// outBuf accumulates tuples bound for one (edge, target) pair until a
// size- or deadline-triggered flush hands the whole batch to the target
// through the producer's ring to it. Owned by the emitting executor
// goroutine.
type outBuf struct {
	target *task
	edge   *edge
	envs   envBatch
}

// task is one executor: a single goroutine running one spout or bolt
// instance.
type task struct {
	id           int
	component    string
	index        int
	numTasks     int
	worker       *workerProc
	execCost     time.Duration
	tickInterval time.Duration
	// nextTickNs is when a ticking bolt's next tick comes due on the
	// coarse clock: written by the executor, read by the clock goroutine
	// (see wakeDueTicks).
	nextTickNs atomic.Int64

	spout Spout
	bolt  Bolt

	// Spouts only: opsPending is 1 while ops may wait on the ack rings
	// (see signalOps). It sits away from the slot counters the spout
	// writes per root, so that the bolts' loads of it do not pull a cache
	// line the spout keeps dirty.
	opsPending atomic.Uint32
	done       chan struct{} // closed when the executor goroutine exits
	rng        *rand.Rand    // fault-probability draws; executor-goroutine-local

	// wait is the one thing the executor blocks on. A push, ops, freed
	// queue space, a splice, ScaleDown's stop (stopped) and shutdown are
	// each published before their Wake, and the executor re-checks them
	// all after Prepare.
	wait    *ring.Waiter
	stopped atomic.Bool

	// Input. inRings (bolts) is the copy-on-write list of per-producer
	// rings this executor drains, ackRings (spouts) the list of per-bolt
	// ack rings; ringMu orders list splices (producers attach, the
	// consumer prunes).
	ringMu   sync.Mutex
	inRings  atomic.Pointer[[]*ring.SPSC[envBatch]]
	ackRings atomic.Pointer[[]*ring.SPSC[ackOp]]

	// dead marks a retired task. Set under the topology splice lock, read
	// by producers under its read lock, so a parked send observing
	// dead=false is ordered before the retirer's queue reclamation.
	dead atomic.Bool
	// inbound counts batches currently inside sendBatch targeting this
	// task (delivered, parked, or re-routing). ScaleDown's flush phase
	// waits for it to reach zero before stopping the executor.
	inbound atomic.Int64
	// routeGen is the route epoch this task's cached emit state (outs,
	// edgeBase, edgeTargets) was built against. Written by the executor
	// goroutine, read by splicers awaiting convergence.
	routeGen atomic.Uint64

	// queued counts tuples reserved against this task's QueueSize bound:
	// producers CAS-reserve before sending a batch (reserve) and the
	// consumer releases at receive, so it is exact — never negative,
	// never above QueueSize — even though batches vary in size.
	queued atomic.Int64
	// spaceWaiters holds the waiters of producers blocked on this task's
	// full queue, woken by the next release; spaceWanted says it is
	// non-empty, so a release with no producer waiting pays one load.
	spaceWanted  atomic.Bool
	spaceMu      sync.Mutex
	spaceWaiters []*ring.Waiter
	// outPending counts this task's non-empty out-buffers plus batches
	// taken from them and not yet handed off: tuples emitted but not yet
	// delivered downstream. Quiescence requires zero.
	outPending atomic.Int64

	counters taskCounters
	// stage is the executor's collector's staged counters; only the
	// executor goroutine touches it (see counterStage).
	stage     *counterStage
	slots     slotPool   // spout: its acker slots; executor-goroutine-local
	opScratch []ackOp    // spout: drainAcks' pop buffer; executor-goroutine-local
	acks      []ackBatch // bolt: staged ops and ack ring per upstream spout

	// Emit-path state, owned by the executor goroutine.
	edgeState   uint64 // splitmix64 state for edge-id draws
	arena       tupleArena
	outEdges    []*edge
	outFields   []string
	edgeBase    []int     // outs offset of each outEdges entry
	edgeTargets [][]*task // cached target snapshot of each outEdges entry
	outs        []outBuf  // flat per-(edge,target) buffers, edge-major
	selScratch  []int     // routing selections (outs indices), reused
	idScratch   []uint64  // spout edge-id staging, reused
	firstBufNs  int64     // coarse stamp of oldest unflushed tuple, 0 if none

	// Producer state, owned by the executor goroutine: the SPSC ring this
	// task pushes through to each downstream target.
	outRings map[*task]*ring.SPSC[envBatch]
}

// runningTopology is the live runtime of a submitted topology.
type runningTopology struct {
	cluster *Cluster
	topo    *Topology
	cfg     ClusterConfig

	workers []*workerProc
	// tasksMu guards tasks, retired, nextIndex and placed against live
	// scale events; taskByID is copy-on-write so hot-path ack lookups
	// stay lock-free.
	tasksMu  sync.RWMutex
	tasks    []*task
	retired  []TaskStats // frozen stats of drained (scaled-down) tasks
	taskByID atomic.Pointer[map[int]*task]
	edges    map[string][]*edge // source component -> downstream edges
	allEdges []*edge            // every edge, declaration order
	acker    *acker

	// Elastic-runtime state. spliceMu orders fan-out table splices against
	// producer sends: a send holds the read lock only across its
	// (non-blocking) reserve+hand-off, a splice holds the write lock while
	// publishing new target lists. routeEpoch lets executors rebuild their
	// cached routes lazily; scaleMu serializes scale operations on this
	// topology.
	spliceMu   sync.RWMutex
	routeEpoch atomic.Uint64
	scaleMu    sync.Mutex
	nextIndex  map[string]int // per-component next task index (monotone)
	placed     int            // round-robin placement cursor for spawns
	scaleUps   atomic.Int64
	scaleDowns atomic.Int64

	clock    coarseClock
	trace    *Trace // sampled-tuple trace ring; nil = tracing disabled
	effBatch int    // tuples per batch, min(batchSize, QueueSize)

	// closed is set when the topology shuts down; every executor and the
	// coarse clock check it with one load.
	closed       atomic.Bool
	wg           sync.WaitGroup
	spoutsPaused atomic.Bool
}

// buildRuntime schedules the topology: workers round-robin over nodes,
// executors round-robin over workers (spouts first, declaration order),
// mirroring Storm's even scheduler.
func (c *Cluster) buildRuntime(t *Topology, sc SubmitConfig) (*runningTopology, error) {
	rt := &runningTopology{
		cluster:   c,
		topo:      t,
		cfg:       c.cfg,
		edges:     make(map[string][]*edge),
		nextIndex: make(map[string]int),
		trace:     c.trace,
	}
	rt.taskByID.Store(&map[int]*task{})
	rt.effBatch = min(batchSize, c.cfg.QueueSize)
	rt.clock.ns.Store(time.Now().UnixNano())
	// Worker and task ids are cluster-global so concurrently running
	// topologies never collide in the fault registry or snapshots.
	for i := 0; i < sc.Workers; i++ {
		n := c.nodes[c.nextWorker%len(c.nodes)]
		w := &workerProc{id: fmt.Sprintf("worker-%d", c.nextWorker), node: n}
		c.nextWorker++
		rt.workers = append(rt.workers, w)
	}
	totalTasks := 0
	for _, sd := range t.spouts {
		totalTasks += sd.parallelism
	}
	for _, bd := range t.bolts {
		totalTasks += bd.parallelism
	}
	placed := 0
	blockSize := (totalTasks + len(rt.workers) - 1) / len(rt.workers)
	place := func() *workerProc {
		var idx int
		if sc.Strategy == PlaceBlocked {
			idx = placed / blockSize
		} else {
			idx = placed % len(rt.workers)
		}
		placed++
		return rt.workers[idx%len(rt.workers)]
	}
	// Seed per-task randomness off the cluster-global task counter so
	// concurrently running topologies draw distinct edge-id streams.
	taskSeed := c.cfg.Seed + int64(c.nextTask)
	for _, sd := range t.spouts {
		for i := 0; i < sd.parallelism; i++ {
			taskSeed++
			tk := &task{
				id:        c.nextTask,
				component: sd.name,
				index:     i,
				numTasks:  sd.parallelism,
				worker:    place(),
				execCost:  sd.execCost,
				spout:     sd.factory(),
				rng:       rand.New(rand.NewSource(taskSeed)),
				edgeState: uint64(taskSeed),
			}
			if tk.spout == nil {
				return nil, fmt.Errorf("dsps: spout factory for %q returned nil", sd.name)
			}
			rt.initTask(tk)
			tk.slots.owner = tk.id
			rt.tasks = append(rt.tasks, tk)
			c.nextTask++
		}
	}
	for _, bd := range t.bolts {
		for i := 0; i < bd.parallelism; i++ {
			taskSeed++
			tk := &task{
				id:           c.nextTask,
				component:    bd.name,
				index:        i,
				numTasks:     bd.parallelism,
				worker:       place(),
				execCost:     bd.execCost,
				tickInterval: bd.tickInterval,
				bolt:         bd.factory(),
				rng:          rand.New(rand.NewSource(taskSeed)),
				edgeState:    uint64(taskSeed),
			}
			if tk.bolt == nil {
				return nil, fmt.Errorf("dsps: bolt factory for %q returned nil", bd.name)
			}
			rt.initTask(tk)
			rt.tasks = append(rt.tasks, tk)
			c.nextTask++
		}
	}
	byID := make(map[int]*task, len(rt.tasks))
	byComponent := map[string][]*task{}
	for _, tk := range rt.tasks {
		byID[tk.id] = tk
		byComponent[tk.component] = append(byComponent[tk.component], tk)
		rt.nextIndex[tk.component] = tk.index + 1
	}
	rt.taskByID.Store(&byID)
	rt.placed = placed
	// Wire subscriptions.
	for _, bd := range t.bolts {
		for _, sub := range bd.subs {
			targets := byComponent[bd.name]
			e := &edge{
				grouping:   sub.grouping,
				source:     sub.source,
				targetComp: bd.name,
			}
			e.targets.Store(&targets)
			rt.edges[sub.source] = append(rt.edges[sub.source], e)
			rt.allEdges = append(rt.allEdges, e)
		}
	}
	// Precompute each task's emit-path state: its outgoing edges, output
	// schema, and one out-buffer per (edge, target).
	for _, tk := range rt.tasks {
		tk.outEdges = rt.edges[tk.component]
		tk.outFields = rt.fieldsOf(tk.component)
		rt.rebuildOuts(tk, 0)
	}
	rt.acker = newAcker(c.cfg.AckTimeout, c.cfg.MaxSpoutPending, rt.clock.nowNs)
	for _, tk := range rt.tasks {
		if tk.spout != nil {
			rt.acker.grow(&tk.slots)
		}
	}
	return rt, nil
}

// initTask wires what every executor blocks on, its waiter, and its
// (initially empty) input lists: per-producer rings for a bolt, per-bolt
// ack rings for a spout.
func (rt *runningTopology) initTask(tk *task) {
	tk.done = make(chan struct{})
	tk.wait = ring.NewWaiter()
	rings := make([]*ring.SPSC[envBatch], 0)
	tk.inRings.Store(&rings)
	acks := make([]*ring.SPSC[ackOp], 0)
	tk.ackRings.Store(&acks)
	if tk.spout != nil {
		tk.opScratch = make([]ackOp, rt.effBatch)
	}
}

// fieldsOf returns the declared output schema of a component.
func (rt *runningTopology) fieldsOf(component string) []string {
	for _, s := range rt.topo.spouts {
		if s.name == component {
			return s.fields
		}
	}
	for _, b := range rt.topo.bolts {
		if b.name == component {
			return b.fields
		}
	}
	return nil
}

// taskOf resolves a task id through the copy-on-write index.
//
//dsps:hotpath
func (rt *runningTopology) taskOf(id int) *task {
	return (*rt.taskByID.Load())[id]
}

// rebuildOuts flushes any buffered envelopes to their previous targets and
// rebuilds tk's cached emit state (edgeBase, edgeTargets, outs) against
// each out-edge's current fan-out table, recording the route epoch it was
// built for. Called only from tk's executor goroutine (and from
// buildRuntime/spawnTask before the goroutine starts). Runs once per
// splice epoch change, never per tuple, so its slice growth is off the
// steady-state path.
//
//dsps:coldpath
func (rt *runningTopology) rebuildOuts(tk *task, epoch uint64) {
	rt.flushOut(tk)
	tk.edgeBase = tk.edgeBase[:0]
	tk.edgeTargets = tk.edgeTargets[:0]
	tk.outs = tk.outs[:0]
	for _, e := range tk.outEdges {
		targets := *e.targets.Load()
		tk.edgeBase = append(tk.edgeBase, len(tk.outs))
		tk.edgeTargets = append(tk.edgeTargets, targets)
		for _, tgt := range targets {
			tk.outs = append(tk.outs, outBuf{target: tgt, edge: e})
		}
	}
	tk.routeGen.Store(epoch)
}

// maybeRebuild refreshes tk's cached routes when a splice has advanced the
// route epoch. On the hot path this is two atomic loads.
//
//dsps:hotpath
func (rt *runningTopology) maybeRebuild(tk *task) {
	if epoch := rt.routeEpoch.Load(); epoch != tk.routeGen.Load() {
		rt.rebuildOuts(tk, epoch)
	}
}

// splice runs fn (which must publish new edge target lists) under the
// write side of the splice lock, advances the route epoch, and wakes every
// executor so idle tasks rebuild their cached routes promptly. Returns the
// new epoch.
func (rt *runningTopology) splice(fn func()) uint64 {
	rt.spliceMu.Lock()
	fn()
	epoch := rt.routeEpoch.Add(1)
	rt.spliceMu.Unlock()
	rt.wakeAll()
	return epoch
}

// wakeAll wakes every live executor, after the caller has published what
// for (a new route epoch, shutdown).
func (rt *runningTopology) wakeAll() {
	rt.tasksMu.RLock()
	for _, tk := range rt.tasks {
		tk.wait.Wake()
	}
	rt.tasksMu.RUnlock()
}

// mustRecheck reports, after tk.wait.Prepare, a wake source that ends
// every wait: shutdown, ScaleDown's stop, or (spouts) ops.
func (rt *runningTopology) mustRecheck(tk *task) bool {
	return rt.closed.Load() || tk.stopped.Load() || tk.opsPending.Load() != 0
}

// stale reports a splice tk has not rebuilt its routes for; it ends the
// idle waits.
func (rt *runningTopology) stale(tk *task) bool {
	return rt.routeEpoch.Load() != tk.routeGen.Load()
}

// sendAcks pushes a bolt's staged ops for one spout onto its ack ring and
// signals the spout. Every bolt a root passes sends an op, so ops
// outnumber roots and the ring (MaxSpoutPending ops) can fill; the bolt
// then yields and retries until shutdown or until the spout drains it,
// which it does before every NextTuple, in its idle wait and while
// itself backpressured — so a bolt blocked here never holds up the spout
// that would unblock it.
//
//dsps:hotpath
//dsps:ringproducer
func (rt *runningTopology) sendAcks(ab *ackBatch) {
	ops := ab.ops
	for {
		n := ab.ring.PushN(ops)
		ops = ops[n:]
		if n > 0 {
			ab.spout.signalOps()
		}
		if len(ops) == 0 || rt.closed.Load() {
			break
		}
		runtime.Gosched()
	}
	ab.ops = ab.ops[:0]
}

// signalOps sets the spout sp's ops-pending word, then wakes it; a running
// spout costs the bolt two loads.
//
//dsps:hotpath
func (sp *task) signalOps() {
	if sp.opsPending.Load() == 0 {
		sp.opsPending.Store(1)
	}
	sp.wait.Wake()
}

func (rt *runningTopology) start() {
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		rt.clock.run(&rt.closed, rt.wakeDueTicks)
	}()
	for _, tk := range rt.tasks {
		rt.wg.Add(1)
		if tk.spout != nil {
			go rt.runSpout(tk)
		} else {
			go rt.runBolt(tk)
		}
	}
}

// wakeDueTicks wakes every ticking bolt whose next tick came due between
// two readings of the coarse clock, prev and now; the bolt delivers it at
// its loop top. It runs on the clock goroutine after each refresh, so that
// a ticking bolt parks untimed like any other: a timed park per idle
// round, until the next tick, doubled app_paced's p99 latency.
func (rt *runningTopology) wakeDueTicks(prev, now int64) {
	rt.tasksMu.RLock()
	for _, tk := range rt.tasks {
		if next := tk.nextTickNs.Load(); tk.tickInterval > 0 && prev < next && next <= now {
			tk.wait.Wake()
		}
	}
	rt.tasksMu.RUnlock()
}

// tickDue reports whether the bolt tk's next tick has come due.
func (rt *runningTopology) tickDue(tk *task) bool {
	return tk.tickInterval > 0 && rt.clock.nowNs() >= tk.nextTickNs.Load()
}

func (rt *runningTopology) stop() {
	rt.spoutsPaused.Store(true)
	rt.closed.Store(true)
	rt.wakeAll()
	// Closing first makes any in-flight scale operation bail out of its
	// drain waits quickly; holding scaleMu through cleanup keeps a retire
	// from racing the Cleanup loop below.
	rt.scaleMu.Lock()
	defer rt.scaleMu.Unlock()
	rt.wg.Wait()
	rt.tasksMu.RLock()
	tasks := append([]*task(nil), rt.tasks...)
	rt.tasksMu.RUnlock()
	for _, tk := range tasks {
		if tk.spout != nil {
			tk.spout.Close()
		} else {
			tk.bolt.Cleanup()
		}
	}
}

// progress returns a monotone counter of total work done, used by Drain to
// detect stability. Retired tasks contribute their frozen counters so the
// total never regresses across a scale-down.
func (rt *runningTopology) progress() int64 {
	rt.tasksMu.RLock()
	defer rt.tasksMu.RUnlock()
	var total int64
	for _, tk := range rt.tasks {
		total += tk.counters.executed.Load() +
			tk.counters.emitted.Load() +
			tk.counters.acked.Load() +
			tk.counters.failed.Load() +
			tk.counters.dropped.Load()
	}
	for _, ts := range rt.retired {
		total += ts.Executed + ts.Emitted + ts.Acked + ts.Failed + ts.Dropped
	}
	return total
}

// quiescent reports whether no tuples are queued, buffered in producers,
// or tracked in flight.
func (rt *runningTopology) quiescent() bool {
	if rt.acker.inFlight() > 0 {
		return false
	}
	rt.tasksMu.RLock()
	defer rt.tasksMu.RUnlock()
	for _, tk := range rt.tasks {
		if tk.queued.Load() != 0 || tk.outPending.Load() != 0 || !ringsEmpty(*tk.ackRings.Load()) {
			return false
		}
	}
	return true
}

// nextEdgeID draws a non-zero edge id from the task's splitmix64 stream —
// a few arithmetic ops instead of a math/rand call, seeded per task so
// runs are reproducible. Edge ids of zero would be invisible to the XOR
// tree.
//
//dsps:hotpath
func (tk *task) nextEdgeID() uint64 {
	for {
		tk.edgeState += 0x9e3779b97f4a7c15
		z := tk.edgeState
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		if z != 0 {
			return z
		}
	}
}

// --- Routing ---

// routeInto computes the deliveries of a tuple emitted by tk into
// tk.selScratch as outs indices, returning the selection count: one
// task per outgoing edge.
//
//dsps:hotpath
func (rt *runningTopology) routeInto(tk *task, tpl *Tuple) int {
	sel := tk.selScratch[:0]
	for ei, e := range tk.outEdges {
		// Route against the cached target snapshot, not the live table:
		// the cache is consistent with the outs/edgeBase layout even while
		// a splice is publishing new targets (maybeRebuild catches up at
		// the next loop top).
		nt := len(tk.edgeTargets[ei])
		if nt == 0 {
			continue
		}
		if idx := e.grouping.Select(tpl, nt); idx >= 0 && idx < nt {
			sel = append(sel, tk.edgeBase[ei]+idx) //dspslint:ignore allocfree selScratch retains capacity across emits; grows only until the fan-out stabilizes
		}
	}
	tk.selScratch = sel
	return len(sel)
}

// enqueue appends one tuple to the out-buffer at bufIdx, flushing the
// buffer when it reaches the batch size. An empty out-buffer holds the
// buffer its last send got back, if any.
//
//dsps:hotpath
func (rt *runningTopology) enqueue(tk *task, bufIdx int, tpl *Tuple, nowNs int64) {
	ob := &tk.outs[bufIdx]
	if ob.envs.size() == 0 {
		if cap(ob.envs.tuples) == 0 {
			ob.envs = newEnvBatch(rt.effBatch)
		}
		tk.outPending.Add(1)
	}
	if tk.firstBufNs == 0 {
		tk.firstBufNs = nowNs
	}
	ob.envs.add(tpl, nowNs)
	if ob.envs.size() >= rt.effBatch {
		ob.envs = rt.sendBatch(tk, ob.edge, ob.target, ob.envs)
	}
}

// flushOut sends every non-empty out-buffer of tk downstream.
//
//dsps:hotpath
func (rt *runningTopology) flushOut(tk *task) {
	if tk.outPending.Load() == 0 {
		tk.firstBufNs = 0
		return
	}
	for i := range tk.outs {
		ob := &tk.outs[i]
		if ob.envs.size() == 0 {
			continue
		}
		ob.envs = rt.sendBatch(tk, ob.edge, ob.target, ob.envs)
	}
	tk.firstBufNs = 0
}

// rerouteRetry is how long a blocked send waits before re-consulting a
// dynamic grouping. Short enough that a controller bypass takes effect
// within a control period; long enough to stay off the hot path.
const rerouteRetry = 50 * time.Millisecond

// blockedRecheck is how often a producer blocked on a full non-dynamic
// queue re-checks capacity. The target's release is the primary wakeup;
// the recheck is a backstop.
const blockedRecheck = 10 * time.Millisecond

// reserve claims n tuple slots against the task's queue bound, failing
// when the queue is full. The bound is counted in tuples — not batch
// slots — so a stream of tiny partial batches cannot collapse the
// effective queue capacity below QueueSize.
//
//dsps:hotpath
func (tk *task) reserve(n, bound int64) bool {
	for {
		q := tk.queued.Load()
		if q+n > bound {
			return false
		}
		if tk.queued.CompareAndSwap(q, q+n) {
			return true
		}
	}
}

// release frees n reserved tuple slots (at batch receive) and wakes the
// producers blocked on this task's queue, if any.
//
//dsps:hotpath
func (tk *task) release(n int64) {
	tk.queued.Add(-n)
	if tk.spaceWanted.Load() {
		tk.wakeSpaceWaiters()
	}
}

// wakeSpaceWaiters wakes and forgets every producer blocked on tk's queue.
// Each re-checks the queue and re-registers if it is still full.
func (tk *task) wakeSpaceWaiters() {
	tk.spaceMu.Lock()
	tk.spaceWanted.Store(false)
	for i, w := range tk.spaceWaiters {
		w.Wake()
		tk.spaceWaiters[i] = nil
	}
	tk.spaceWaiters = tk.spaceWaiters[:0]
	tk.spaceMu.Unlock()
}

// awaitSpace registers w to be woken by tk's next release. The producer
// registers before its Prepare and re-checks the queue after it, and
// release frees the space before it reads spaceWanted: either the
// producer's re-check sees the space or the release sees the registration.
//
//dsps:coldpath
func (tk *task) awaitSpace(w *ring.Waiter) {
	tk.spaceMu.Lock()
	if !slices.Contains(tk.spaceWaiters, w) {
		tk.spaceWaiters = append(tk.spaceWaiters, w)
	}
	tk.spaceWanted.Store(true)
	tk.spaceMu.Unlock()
}

// sendBatch hands a batch to target through the producer's ring to it,
// blocking for backpressure but bailing out on shutdown, and returns an
// empty buffer for the producer's next batch: one the target has finished
// with, reclaimed from the ring, or none yet. Backpressure is
// tuple-denominated: the producer reserves len(envs) slots against the
// target's QueueSize before the push, and a ring never refuses a reserved
// push. When the batch rides a *dynamic* edge and the target's queue
// stays full, the grouping is re-consulted periodically: if the
// controller has since steered traffic away from a misbehaving target,
// the waiting batch is re-directed instead of wedging its producer — the
// paper's "re-direct data tuples to bypass misbehaving workers" applied
// to in-flight emissions. Non-dynamic edges never re-route (fields
// grouping correctness depends on stable key→task assignment).
//
// The reserve+push rides the topology splice read lock: it never blocks
// while held, and it orders the push against ScaleDown's retire sequence
// — once the retirer has set target.dead under the write lock, no further
// batch can land in the dead task's rings, so reclaiming them is
// race-free. A batch parked against a since-retired target re-homes to a
// live sibling through the edge's current fan-out table.
//
// A blocked producer publishes its staged counters first and waits on its
// own waiter, which the target's release wakes; a blocked spout keeps
// applying the ops on its ack rings, since a bolt blocked on a full one
// may be what keeps target's queue full. Their completions wait for the
// spout's loop top.
//
//dsps:hotpath
//dsps:ringproducer
func (rt *runningTopology) sendBatch(src *task, e *edge, target *task, envs envBatch) envBatch {
	n := int64(envs.size())
	bound := int64(rt.cfg.QueueSize)
	dg, dynamic := e.grouping.(*DynamicGrouping)
	recheck := blockedRecheck
	if dynamic {
		recheck = rerouteRetry
	}
	// recheckAt is when a blocked batch next re-checks its route; 0 until
	// the first wait.
	var recheckAt int64
	target.inbound.Add(1)
	for {
		rt.spliceMu.RLock()
		if target.dead.Load() {
			rt.spliceMu.RUnlock()
			// Drop the producer's cached ring to the retired target so the
			// map does not accumulate entries across scale churn.
			delete(src.outRings, target)
			tl := *e.targets.Load()
			if len(tl) == 0 {
				// No live target remains (topology tearing down): drop the
				// batch; anchored roots fail via the ack-timeout sweep.
				target.inbound.Add(-1)
				src.outPending.Add(-1)
				return envs.emptied()
			}
			idx := 0
			if i := e.grouping.Select(envs.tuples[0], len(tl)); i >= 0 && i < len(tl) {
				idx = i
			}
			target.inbound.Add(-1)
			target = tl[idx]
			target.inbound.Add(1)
			continue
		}
		if target.reserve(n, bound) {
			r := src.outRings[target]
			if r == nil {
				r = rt.attachInRingLocked(target)
				if src.outRings == nil {
					src.outRings = make(map[*task]*ring.SPSC[envBatch]) //dspslint:ignore allocfree one-time lazy init per source task on first ring attach
				}
				src.outRings[target] = r
			}
			// A reserved push always finds room (attachInRingLocked); the
			// failure arm is defensive (it would indicate a reservation
			// accounting bug) and backs out rather than losing the batch.
			if !r.Push(envs) {
				target.release(n)
				rt.spliceMu.RUnlock()
				runtime.Gosched()
				continue
			}
			rt.spliceMu.RUnlock()
			target.wait.Wake()
			target.inbound.Add(-1)
			src.outPending.Add(-1)
			src.counters.batches.Add(1)
			spare, _ := r.Reclaim()
			return envBatch{tuples: spare.tuples[:0], ns: spare.ns[:0]}
		}
		rt.spliceMu.RUnlock()
		if recheckAt == 0 {
			src.counters.bpWaits.Add(1)
			src.stage.publish(src, rt.clock.nowNs())
			recheckAt = rt.clock.nowNs() + int64(recheck)
		}
		target.awaitSpace(src.wait)
		src.wait.Prepare()
		d := time.Duration(recheckAt - rt.clock.nowNs())
		if d <= 0 || target.queued.Load()+n <= bound || target.dead.Load() || rt.mustRecheck(src) {
			src.wait.Cancel()
		} else {
			src.wait.Wait(d)
		}
		rt.drainAcks(src)
		if rt.closed.Load() || src.stopped.Load() {
			// Shutdown, or the producer itself is being drained: abandon
			// the blocked send so its executor can settle (the batch's
			// roots fail via ack timeout, exactly like a Storm rebalance).
			target.inbound.Add(-1)
			src.outPending.Add(-1)
			return envs.emptied()
		}
		if now := rt.clock.nowNs(); now >= recheckAt {
			recheckAt = now + int64(recheck)
			if dynamic {
				tl := *e.targets.Load()
				if idx := dg.Select(envs.tuples[0], len(tl)); idx >= 0 && idx < len(tl) {
					target.inbound.Add(-1)
					target = tl[idx]
					target.inbound.Add(1)
				}
			}
		}
	}
}

// --- Spout executor ---

type spoutCollector struct {
	rt    *runningTopology
	tk    *task
	stage counterStage
}

// Emit implements SpoutCollector. Called only from the spout's executor
// goroutine.
//
//dsps:hotpath
func (sc *spoutCollector) Emit(values Values, msgID any) {
	rt, tk := sc.rt, sc.tk
	tpl := tk.arena.get()
	tpl.Values = values
	tpl.SourceComponent = tk.component
	tpl.SourceTask = tk.id
	tpl.fields = tk.outFields
	nsel := rt.routeInto(tk, tpl)
	now := rt.clock.nowNs()
	sc.stage.emitted++
	anchored := msgID != nil
	if anchored && nsel == 0 {
		// Nothing downstream: the root completes at once, and is delivered
		// at the loop top like every other completion (no op can name it,
		// so any non-zero root id will do).
		i := rt.acker.register(&tk.slots, 1, 0, msgID)
		rt.acker.complete(&tk.slots, rt.acker.slot(i), i, true)
		return
	}
	sc.stage.executed++
	if !anchored {
		// Unanchored deliveries share one immutable tuple header.
		for i := 0; i < nsel; i++ {
			rt.enqueue(tk, tk.selScratch[i], tpl, now)
		}
		return
	}
	// Draw every edge id and register the root *before* the first tuple
	// can leave (a size-triggered flush inside enqueue may hand tuples to
	// a downstream executor immediately), so no op can reach the slot
	// before its root does.
	rootID := tk.nextEdgeID()
	ids := tk.idScratch[:0]
	var xor uint64
	for i := 0; i < nsel; i++ {
		id := tk.nextEdgeID()
		ids = append(ids, id) //dspslint:ignore allocfree idScratch retains capacity across emits; grows only until the fan-out stabilizes
		xor ^= id
	}
	tk.idScratch = ids
	slot := rt.acker.register(&tk.slots, rootID, xor, msgID)
	// Record the emit span before the first enqueue so a sampled root's
	// emit always sequences ahead of its descendants' exec spans (enqueue
	// may flush downstream immediately).
	if rt.trace != nil && rt.trace.sampled(rootID) {
		rt.trace.record(TraceSpan{
			RootID:    rootID,
			Kind:      SpanEmit,
			Topology:  rt.topo.Name,
			Component: tk.component,
			TaskID:    tk.id,
			TaskIndex: tk.index,
			WorkerID:  tk.worker.id,
			StartNs:   now,
			EndNs:     now,
			Fanout:    nsel,
		})
	}
	for i := 0; i < nsel; i++ {
		t := tpl
		if i > 0 {
			// Each anchored delivery carries its own edge id, so fan-out
			// needs distinct tuple headers.
			t = tk.arena.get()
			*t = *tpl
		}
		t.rootID = rootID
		t.slot = slot
		t.edgeID = ids[i]
		rt.enqueue(tk, tk.selScratch[i], t, now)
	}
}

// deliverDone delivers the spout's queued completions in order: each
// root's slot goes back to the pool, then the spout hears Ack or Fail.
// Only the loop top calls it, so Ack and Fail never run inside
// NextTuple. A callback that emits may queue more completions (its sends
// can block and apply ops); the loop delivers those too.
//
//dsps:hotpath
func (rt *runningTopology) deliverDone(tk *task) {
	p, st := &tk.slots, tk.stage
	for p.head < p.nDone {
		d := p.done[p.head]
		p.done[p.head] = ackDone{}
		p.head++
		rt.acker.release(p, d.slot)
		if d.ok {
			st.acked++
			st.completeNs += int64(d.latency)
			st.completeHist.observe(d.latency)
			tk.spout.Ack(d.msgID)
		} else {
			st.failed++
			tk.spout.Fail(d.msgID)
		}
	}
	p.head, p.nDone = 0, 0
}

// How long a spout waits when it has nothing to do. Both waits end early
// on ops, a splice or shutdown: an ack left for the timeout to find would
// cost its root the rest of the wait in complete latency. The re-poll is
// shorter than the runtime timer's quantum (≈1.06 ms on Linux, where the
// netpoller's epoll_wait sleeps in milliseconds), so ring.Waiter times it
// in the kernel: on the timer every root of a spout whose roots come due
// faster than that would be emitted up to a quantum late.
const (
	// spoutRepollInterval is how long a spout whose NextTuple had nothing
	// waits before it asks again.
	spoutRepollInterval = 100 * time.Microsecond
	// spoutThrottleRecheck is how long a paused or MaxSpoutPending-bound
	// spout waits before it re-reads the pause flag.
	spoutThrottleRecheck = time.Millisecond
)

// parkSpout is the spout loop's idle wait. It flushes and publishes first —
// the ops that would wake the spout may never be produced while tuples
// sit in its output buffers — and drops the ack rings of retired bolts,
// then blocks on its waiter until ops arrive (applied before it returns),
// d elapses, a splice or shutdown; the loop top takes the last two.
func (rt *runningTopology) parkSpout(tk *task, d time.Duration) {
	rt.flushOut(tk)
	tk.stage.publish(tk, rt.clock.nowNs())
	pruneRings(&tk.ringMu, &tk.ackRings, staleRing[ackOp])
	tk.wait.Prepare()
	if rt.mustRecheck(tk) || rt.stale(tk) {
		tk.wait.Cancel()
	} else {
		tk.wait.Wait(d)
	}
	rt.drainAcks(tk)
}

func (rt *runningTopology) runSpout(tk *task) {
	defer rt.wg.Done()
	defer close(tk.done)
	collector := &spoutCollector{rt: rt, tk: tk}
	tk.stage = &collector.stage
	tk.spout.Open(rt.taskContext(tk), collector)
	// The timeout sweep covers the spout's own slots every AckTimeout/2,
	// but no more often than every 10 ms.
	sweepEvery := int64(max(rt.cfg.AckTimeout/2, 10*time.Millisecond))
	nextSweep := rt.clock.nowNs() + sweepEvery
	for {
		if rt.closed.Load() {
			return
		}
		rt.maybeRebuild(tk)
		// Apply the ops that arrived, then sweep, then deliver.
		rt.drainAcks(tk)
		now := rt.clock.nowNs()
		if now >= nextSweep {
			rt.acker.sweep(&tk.slots)
			nextSweep = now + sweepEvery
		}
		if tk.slots.nDone > 0 {
			rt.deliverDone(tk)
		}
		if now != collector.stage.pubNs {
			collector.stage.publish(tk, now)
		}
		if rt.spoutsPaused.Load() || tk.slots.inUse() >= rt.cfg.MaxSpoutPending {
			rt.parkSpout(tk, spoutThrottleRecheck)
			continue
		}
		if tk.spout.NextTuple() {
			// Simulated emission-path cost (deserialization, I/O): the
			// same interference and fault model as bolt execution.
			if tk.execCost > 0 {
				n := tk.worker.node
				f, _ := rt.cluster.faults.get(tk.worker.id)
				cost := serviceCost(tk, n.busy.Add(1), f.Slowdown)
				rt.cfg.Delayer.Delay(cost)
				n.busy.Add(-1)
				collector.stage.execNs += int64(cost)
			}
			// Deadline flush: a partial batch never waits longer than
			// flushInterval past its oldest envelope.
			if tk.firstBufNs != 0 && rt.clock.nowNs()-tk.firstBufNs >= int64(flushInterval) {
				rt.flushOut(tk)
			}
			continue
		}
		rt.parkSpout(tk, spoutRepollInterval)
	}
}

// serviceCost is the interference model: tk's simulated service cost
// grows while its node is oversubscribed (more busy executors than
// cores) and when its worker is slowed by a fault.
//
//dsps:hotpath
func serviceCost(tk *task, busy int64, slowdown float64) time.Duration {
	cost, n := tk.execCost, tk.worker.node
	if over := float64(busy) - float64(n.cores); over > 0 {
		cost = time.Duration(float64(cost) * (1 + over/float64(n.cores)))
	}
	if slowdown > 1 {
		cost = time.Duration(float64(cost) * slowdown)
	}
	return cost
}

// --- Bolt executor ---

// ackBatch stages a bolt's ops bound for one spout between flushes, and
// holds the bolt's ack ring to that spout.
type ackBatch struct {
	spout *task
	ring  *ring.SPSC[ackOp]
	ops   []ackOp
}

type boltCollector struct {
	rt    *runningTopology
	tk    *task
	stage counterStage

	current *Tuple
	xor     uint64 // the current input's edge id XOR every edge produced from it
	failed  bool
}

// Emit implements OutputCollector. Called only from the bolt's executor
// goroutine during Execute.
//
//dsps:hotpath
func (bc *boltCollector) Emit(values Values) {
	rt, tk := bc.rt, bc.tk
	tpl := tk.arena.get()
	tpl.Values = values
	tpl.SourceComponent = tk.component
	tpl.SourceTask = tk.id
	tpl.fields = tk.outFields
	nsel := rt.routeInto(tk, tpl)
	now := rt.clock.nowNs()
	anchored := bc.current != nil && bc.current.rootID != 0
	if anchored {
		rootID, slot := bc.current.rootID, bc.current.slot
		for i := 0; i < nsel; i++ {
			t := tpl
			if i > 0 {
				t = tk.arena.get()
				*t = *tpl
			}
			id := tk.nextEdgeID()
			t.rootID = rootID
			t.slot = slot
			t.edgeID = id
			bc.xor ^= id
			rt.enqueue(tk, tk.selScratch[i], t, now)
		}
	} else {
		for i := 0; i < nsel; i++ {
			rt.enqueue(tk, tk.selScratch[i], tpl, now)
		}
	}
	bc.stage.emitted++
}

// Fail implements OutputCollector.
func (bc *boltCollector) Fail() { bc.failed = true }

// addOp stages an op for the spout that owns its root, flushing that
// spout's batch when full.
//
//dsps:hotpath
func (bc *boltCollector) addOp(op ackOp) {
	owner := bc.rt.acker.owner(op.slot)
	tk := bc.tk
	var ab *ackBatch
	for i := range tk.acks {
		if tk.acks[i].spout.id == owner {
			ab = &tk.acks[i]
			break
		}
	}
	if ab == nil {
		if ab = bc.rt.addAckBatch(tk, owner); ab == nil {
			return
		}
	}
	// The staging slice holds effBatch ops and is sent when full, so the
	// op always fits.
	n := len(ab.ops)
	ab.ops = ab.ops[:n+1]
	ab.ops[n] = op
	if n+1 >= bc.rt.effBatch {
		bc.rt.sendAcks(ab)
	}
}

// addAckBatch attaches the bolt tk's ack ring to the spout task owner, on
// the bolt's first op for one of its roots, and returns the new staging
// entry; nil when owner is gone.
//
//dsps:coldpath
func (rt *runningTopology) addAckBatch(tk *task, owner int) *ackBatch {
	sp := rt.taskOf(owner)
	if sp == nil {
		return nil
	}
	tk.acks = append(tk.acks, ackBatch{
		spout: sp,
		ring:  rt.attachAckRing(sp),
		ops:   make([]ackOp, 0, rt.effBatch),
	})
	return &tk.acks[len(tk.acks)-1]
}

// flushAcks delivers every staged op batch.
//
//dsps:hotpath
func (bc *boltCollector) flushAcks() {
	for i := range bc.tk.acks {
		if ab := &bc.tk.acks[i]; len(ab.ops) > 0 {
			bc.rt.sendAcks(ab)
		}
	}
}

// settle hands everything the bolt emitted, staged or counted to the rest
// of the engine: after every round of input batches, and on the way out
// of a drain.
//
//dsps:hotpath
func (bc *boltCollector) settle() {
	bc.rt.flushOut(bc.tk)
	bc.flushAcks()
	bc.stage.publish(bc.tk, bc.rt.clock.nowNs())
}

// processTuple runs the full per-tuple bolt path: fault draws, the
// interference cost model, Execute, metrics, and the tuple's ack op.
// Returns false when the topology shut down mid-stall.
//
//dsps:hotpath
func (rt *runningTopology) processTuple(tk *task, collector *boltCollector, tpl *Tuple, enqueuedNs int64) bool {
	st := &collector.stage
	startNs := rt.clock.nowNs()
	if startNs != st.pubNs {
		st.publish(tk, startNs)
	}
	st.queueNs += startNs - enqueuedNs

	fault, faulty := rt.cluster.faults.get(tk.worker.id)
	// A stalled worker hangs mid-processing until the fault clears or the
	// topology shuts down; its queues back up and its roots time out, like
	// a hung JVM. What it did before the stall is published first, so the
	// controller sees it stop.
	if faulty && fault.Stall {
		st.publish(tk, startNs)
	}
	for faulty && fault.Stall {
		// Shutdown, or a forced scale-down that retires even a stalled
		// executor, ends the stall; the batch's unprocessed roots fail via
		// ack timeout.
		tk.wait.Prepare()
		if rt.mustRecheck(tk) {
			tk.wait.Cancel()
			return false
		}
		tk.wait.Wait(10 * time.Millisecond)
		fault, faulty = rt.cluster.faults.get(tk.worker.id)
	}
	if faulty && fault.DropProb > 0 && tk.rng.Float64() < fault.DropProb {
		tk.counters.dropped.Add(1)
		return true // root will fail by ack timeout
	}
	if faulty && fault.FailProb > 0 && tk.rng.Float64() < fault.FailProb {
		tk.counters.dropped.Add(1)
		if tpl.rootID != 0 {
			collector.addOp(ackOp{root: tpl.rootID, slot: tpl.slot, fail: true})
		}
		return true
	}

	// Only executors with a cost count themselves busy on the node: the
	// interference model is what reads it.
	cost := tk.execCost
	if cost > 0 {
		cost = serviceCost(tk, tk.worker.node.busy.Add(1), fault.Slowdown)
		rt.cfg.Delayer.Delay(cost)
	}

	collector.current = tpl
	collector.xor = tpl.edgeID
	collector.failed = false
	tk.bolt.Execute(tpl)
	if tk.execCost > 0 {
		tk.worker.node.busy.Add(-1)
	}

	// Execute latency includes the simulated cost even under NopDelayer so
	// metric series carry the interference signal.
	elapsed := time.Duration(rt.clock.nowNs() - startNs)
	if elapsed < cost {
		elapsed = cost
	}
	st.executed++
	st.execNs += int64(elapsed)
	st.execHist.observe(elapsed)

	if rt.trace != nil && tpl.rootID != 0 && rt.trace.sampled(tpl.rootID) {
		rt.trace.record(TraceSpan{
			RootID:          tpl.rootID,
			Kind:            SpanExec,
			Topology:        rt.topo.Name,
			Component:       tk.component,
			TaskID:          tk.id,
			TaskIndex:       tk.index,
			WorkerID:        tk.worker.id,
			SourceComponent: tpl.SourceComponent,
			StartNs:         startNs,
			EndNs:           startNs + int64(elapsed),
			QueueNs:         startNs - enqueuedNs,
		})
	}

	if tpl.rootID != 0 {
		collector.addOp(ackOp{root: tpl.rootID, xor: collector.xor, slot: tpl.slot, fail: collector.failed})
	}
	collector.current = nil
	return true
}

// runBolt is the bolt executor loop: deliver a due tick, drain every
// producer ring, flush, and when every ring is dry park on the waiter at
// once. Spinning first (yield-probing before the park) was measured and
// lost: it bought idle latency with a busy core (DESIGN.md › Fast-path
// ledger).
func (rt *runningTopology) runBolt(tk *task) {
	defer rt.wg.Done()
	defer close(tk.done)
	collector := &boltCollector{rt: rt, tk: tk}
	tk.stage = &collector.stage
	tk.bolt.Prepare(rt.taskContext(tk), collector)
	tk.nextTickNs.Store(rt.clock.nowNs() + int64(tk.tickInterval))
	for {
		rt.maybeRebuild(tk)
		if rt.closed.Load() {
			return
		}
		if tk.stopped.Load() {
			// Drain request from ScaleDown: everything emitted or staged
			// goes out before the executor settles; unprocessed input stays
			// in the rings for retireTask to reclaim.
			collector.settle()
			return
		}
		// A tick bypasses the fault, cost and ack machinery: it exists
		// only to advance bolt-internal time. It comes due on the coarse
		// clock, not through the input queue, so a full queue delays it by
		// at most a round of input batches and drops none.
		ticked := rt.tickDue(tk)
		if ticked {
			tk.bolt.Execute(NewTickTuple())
			next := tk.nextTickNs.Load() + int64(tk.tickInterval)
			if now := rt.clock.nowNs(); next <= now {
				next = now + int64(tk.tickInterval) // skip the ticks a stall missed
			}
			tk.nextTickNs.Store(next)
		}
		processed, ok := rt.drainInRings(tk, collector)
		if !ok {
			return
		}
		if processed > 0 || ticked {
			// Bolts emit only while processing input, so flushing here
			// (rather than on a deadline) bounds output latency by the
			// input batch and leaves nothing buffered while idle.
			collector.settle()
			continue
		}
		// Park. Prepare publishes the prepared state before the re-check of
		// every wake source, on a *fresh* ring list: a producer's attach
		// and push are sequenced before its Wake, so either the re-check
		// sees the element or the Wake ends the wait. A splice wakes the
		// bolt so that even an idle one re-acks the route epoch promptly
		// (ScaleDown waits on that convergence), and the clock wakes a
		// ticking bolt when its tick comes due.
		pruneRings(&tk.ringMu, &tk.inRings, staleRing[envBatch])
		tk.wait.Prepare()
		if !ringsEmpty(*tk.inRings.Load()) || rt.mustRecheck(tk) || rt.stale(tk) || rt.tickDue(tk) {
			tk.wait.Cancel()
			continue
		}
		tk.counters.ringParks.Add(1)
		tk.wait.Wait(0)
	}
}

func (rt *runningTopology) taskContext(tk *task) TopologyContext {
	return TopologyContext{
		Component: tk.component,
		TaskIndex: tk.index,
		TaskID:    tk.id,
		NumTasks:  tk.numTasks,
		WorkerID:  tk.worker.id,
		NodeID:    tk.worker.node.id,
	}
}
