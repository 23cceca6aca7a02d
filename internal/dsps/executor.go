package dsps

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
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

	spout Spout
	bolt  Bolt

	// napping is 1 while the spout is in napSpout's futex wait (spouts
	// only); sendAcks clears it and wakes the spout's thread. It sits by
	// ackCh, which every sendAcks reads too, and away from the slot
	// counters the spout writes per root, so that the bolts' load of it
	// does not pull a cache line the spout keeps dirty.
	napping atomic.Uint32
	ackCh   chan []ackOp  // spouts only: ops on the spout's roots
	space   chan struct{} // bolts only: capacity-freed wakeup signal
	stop    chan struct{} // closed by ScaleDown to drain this executor
	done    chan struct{} // closed when the executor goroutine exits
	rng     *rand.Rand    // fault-probability draws; executor-goroutine-local

	// Input (bolts only). inRings is the
	// copy-on-write list of per-producer SPSC rings this executor drains;
	// ringMu orders list splices (producers attach, the consumer prunes).
	// ringWait parks the executor when every ring is empty; producers Wake
	// it after a push.
	ringMu   sync.Mutex
	inRings  atomic.Pointer[[]*ring.SPSC[envBatch]]
	ringWait *ring.Waiter

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
	// outPending counts this task's non-empty out-buffers plus batches
	// taken from them and not yet handed off: tuples emitted but not yet
	// delivered downstream. Quiescence requires zero.
	outPending atomic.Int64

	counters taskCounters
	// stage is the executor's collector's staged counters; only the
	// executor goroutine touches it (see counterStage).
	stage *counterStage
	slots slotPool // spout: its acker slots; executor-goroutine-local
	naps  int64    // spout: kernel-timed idle waits taken; executor-goroutine-local

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
	// publishing new target lists. routeEpoch/spliceWake let executors
	// rebuild their cached routes lazily; scaleMu serializes scale
	// operations on this topology.
	spliceMu   sync.RWMutex
	routeEpoch atomic.Uint64
	spliceWake atomic.Pointer[chan struct{}]
	scaleMu    sync.Mutex
	nextIndex  map[string]int // per-component next task index (monotone)
	placed     int            // round-robin placement cursor for spawns
	scaleUps   atomic.Int64
	scaleDowns atomic.Int64

	clock    coarseClock
	fl       *freeLists
	trace    *Trace // sampled-tuple trace ring; nil = tracing disabled
	effBatch int    // tuples per batch, min(batchSize, QueueSize)

	ctx          context.Context
	cancel       context.CancelFunc
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
		fl:        newFreeLists(),
		trace:     c.trace,
	}
	rt.taskByID.Store(&map[int]*task{})
	wake := make(chan struct{})
	rt.spliceWake.Store(&wake)
	rt.effBatch = min(batchSize, c.cfg.QueueSize)
	rt.clock.ns.Store(time.Now().UnixNano())
	rt.ctx, rt.cancel = context.WithCancel(context.Background())
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
				ackCh:     make(chan []ackOp, c.cfg.MaxSpoutPending),
				stop:      make(chan struct{}),
				done:      make(chan struct{}),
				rng:       rand.New(rand.NewSource(taskSeed)),
				edgeState: uint64(taskSeed),
			}
			if tk.spout == nil {
				rt.cancel()
				return nil, fmt.Errorf("dsps: spout factory for %q returned nil", sd.name)
			}
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
				space:        make(chan struct{}, 1),
				stop:         make(chan struct{}),
				done:         make(chan struct{}),
				rng:          rand.New(rand.NewSource(taskSeed)),
				edgeState:    uint64(taskSeed),
			}
			if tk.bolt == nil {
				rt.cancel()
				return nil, fmt.Errorf("dsps: bolt factory for %q returned nil", bd.name)
			}
			rt.initBoltInput(tk)
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

// initBoltInput wires a bolt task's input: an (initially empty) list of
// per-producer SPSC rings plus a park/wake waiter. The queue bound is
// enforced in tuples by reserve(), and every ring holds QueueSize batch
// slots, so a reserved batch (≥1 tuple each) always finds a free slot and
// the push after a successful reservation never fails.
func (rt *runningTopology) initBoltInput(tk *task) {
	empty := make([]*ring.SPSC[envBatch], 0)
	tk.inRings.Store(&empty)
	tk.ringWait = ring.NewWaiter()
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
	fresh := make(chan struct{})
	old := rt.spliceWake.Swap(&fresh)
	rt.spliceMu.Unlock()
	close(*old)
	return epoch
}

// sendAcks delivers a batch of ops to the spout task that owns their
// roots, bailing out on shutdown. The ack channel holds MaxSpoutPending
// batches, but every bolt a root passes sends an op for it, so ops
// outnumber roots and this send can block. It then waits until the spout
// next drains its ack channel, which it does before every NextTuple, in
// every park, and while it is itself blocked on backpressure — so a bolt
// blocked here never holds up the spout that would unblock it. A spout
// napping in its kernel-timed wait is woken once the ops are in its
// channel; one that is not pays an atomic load.
func (rt *runningTopology) sendAcks(sp *task, ops []ackOp) {
	select {
	case sp.ackCh <- ops:
	case <-rt.ctx.Done():
		return
	}
	if sp.napping.Load() == 1 && sp.napping.CompareAndSwap(1, 0) {
		futexWake(&sp.napping)
	}
}

func (rt *runningTopology) start() {
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		rt.clock.run(rt.ctx)
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

func (rt *runningTopology) stop() {
	rt.spoutsPaused.Store(true)
	rt.cancel()
	// Cancelling first makes any in-flight scale operation bail out of its
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
		if tk.queued.Load() != 0 || tk.outPending.Load() != 0 || len(tk.ackCh) > 0 {
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
// buffer when it reaches the batch size.
//
//dsps:hotpath
func (rt *runningTopology) enqueue(tk *task, bufIdx int, tpl *Tuple, nowNs int64) {
	ob := &tk.outs[bufIdx]
	if ob.envs.tuples == nil {
		ob.envs = rt.fl.getEnvs(rt.effBatch)
		tk.outPending.Add(1)
	}
	if tk.firstBufNs == 0 {
		tk.firstBufNs = nowNs
	}
	ob.envs.add(tpl, nowNs)
	if ob.envs.size() >= rt.effBatch {
		envs := ob.envs
		ob.envs = envBatch{}
		rt.sendBatch(tk, ob.edge, ob.target, envs)
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
		envs := ob.envs
		ob.envs = envBatch{}
		rt.sendBatch(tk, ob.edge, ob.target, envs)
	}
	tk.firstBufNs = 0
}

// rerouteRetry is how long a blocked send waits before re-consulting a
// dynamic grouping. Short enough that a controller bypass takes effect
// within a control period; long enough to stay off the hot path.
const rerouteRetry = 50 * time.Millisecond

// blockedRecheck is how often a producer blocked on a full non-dynamic
// queue re-checks capacity. The space channel is the primary wakeup; the
// tick only guards against a lost-wakeup race among multiple producers.
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

// release frees n reserved tuple slots (at batch receive) and wakes one
// blocked producer, if any.
//
//dsps:hotpath
func (tk *task) release(n int64) {
	tk.queued.Add(-n)
	select {
	case tk.space <- struct{}{}:
	default:
	}
}

// sendBatch hands a batch to target through the producer's ring to it,
// blocking for backpressure but bailing out on shutdown. Backpressure is
// tuple-denominated: the producer reserves len(envs) slots against the
// target's QueueSize before the push, and a ring (QueueSize batch slots)
// never refuses a reserved push. When the batch rides a *dynamic* edge
// and the target's queue stays full, the grouping is re-consulted
// periodically: if the controller has since steered traffic away from a
// misbehaving target, the waiting batch is re-directed instead of
// wedging its producer — the paper's "re-direct data tuples to bypass
// misbehaving workers" applied to in-flight emissions. Non-dynamic edges
// never re-route (fields grouping correctness depends on stable
// key→task assignment).
//
// The reserve+push rides the topology splice read lock: it never blocks
// while held, and it orders the push against ScaleDown's retire sequence
// — once the retirer has set target.dead under the write lock, no further
// batch can land in the dead task's rings, so reclaiming them is
// race-free. A batch parked against a since-retired target re-homes to a
// live sibling through the edge's current fan-out table.
//
// A blocked producer publishes its staged counters first, and a blocked
// spout keeps applying the ops on its ack channel: a bolt blocked on that
// channel may be what keeps target's queue full. Their completions wait
// for the spout's loop top.
//
//dsps:hotpath
//dsps:ringproducer
func (rt *runningTopology) sendBatch(src *task, e *edge, target *task, envs envBatch) {
	n := int64(envs.size())
	bound := int64(rt.cfg.QueueSize)
	dg, dynamic := e.grouping.(*DynamicGrouping)
	recheck := blockedRecheck
	if dynamic {
		recheck = rerouteRetry
	}
	// recheckC fires once the target has freed no capacity for a recheck
	// period; nil until the first wait.
	var recheckC <-chan time.Time
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
				rt.fl.putEnvs(envs)
				return
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
			// Reserved tuples ≤ QueueSize and every in-flight batch holds
			// ≥ 1 of them, so a ring with ≥ QueueSize batch slots always
			// has room for a reserved push; the failure arm is defensive
			// (it would indicate a reservation accounting bug) and backs
			// out rather than losing the batch.
			if !r.Push(envs) {
				target.release(n)
				rt.spliceMu.RUnlock()
				runtime.Gosched()
				continue
			}
			rt.spliceMu.RUnlock()
			target.ringWait.Wake()
			target.inbound.Add(-1)
			src.outPending.Add(-1)
			src.counters.batches.Add(1)
			return
		}
		rt.spliceMu.RUnlock()
		if recheckC == nil {
			src.counters.bpWaits.Add(1)
			src.stage.publish(src, rt.clock.nowNs())
			recheckC = time.After(recheck)
		}
		select {
		case <-target.space:
			recheckC = time.After(recheck)
		case ops := <-src.ackCh:
			rt.handleAckBatch(src, ops)
		case <-rt.ctx.Done():
			target.inbound.Add(-1)
			src.outPending.Add(-1)
			return
		case <-src.stop:
			// The producer itself is being drained: abandon the blocked
			// send so its executor can settle (the batch's roots fail via
			// ack timeout, exactly like a Storm rebalance).
			target.inbound.Add(-1)
			src.outPending.Add(-1)
			rt.fl.putEnvs(envs)
			return
		case <-recheckC:
			recheckC = time.After(recheck)
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

// handleAckBatch applies a batch of ops to the spout's slots and recycles
// the slice. Completions queue for delivery at the loop top.
//
//dsps:hotpath
func (rt *runningTopology) handleAckBatch(tk *task, ops []ackOp) {
	for _, op := range ops {
		rt.acker.apply(&tk.slots, op)
	}
	rt.fl.putAcks(ops)
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

// Upper bounds on one spout wait. A timer wait shorter than 1 ms still
// takes at least 1 ms on Linux (the netpoller's epoll_wait sleeps in
// milliseconds), so the ack channel has to be a wake source of the timer
// wait: an ack left for the timer to find costs a root a full quantum of
// complete latency.
//
// The same quantum stretches the 100 µs re-poll to ≈1.1 ms, and a spout
// whose roots come due faster than that emits each up to a quantum late.
// napSpout is the wait that honours spoutRepollInterval, taken by the
// spouts kernelTimedRepoll picks. It blocks the spout's thread in a futex
// wait that an ack ends (sendAcks wakes it), so a completion is delivered
// when it arrives, at the price of a wake-up per ack batch instead of one
// per interval. The tasks the spout's P has just readied wait with the
// blocked thread; a low-rate spout therefore stays on the timer, and a
// closed-loop spout never reaches either idle wait.
const (
	// spoutRepollInterval is how long a spout whose NextTuple had nothing
	// waits before it asks again.
	spoutRepollInterval = 100 * time.Microsecond
	// spoutThrottleRecheck is how long a paused or MaxSpoutPending-bound
	// spout waits before it re-reads the pause flag.
	spoutThrottleRecheck = time.Millisecond
)

// parkSpout is the spout loop's timer wait. It flushes and publishes first —
// the ops that would wake the spout may never be produced while tuples
// sit in its output buffers — then blocks until ops arrive (applied before
// it returns), d elapses, or the topology stops, for which it returns
// false.
func (rt *runningTopology) parkSpout(tk *task, d time.Duration) bool {
	rt.flushOut(tk)
	tk.stage.publish(tk, rt.clock.nowNs())
	select {
	case <-rt.ctx.Done():
		return false
	case ops := <-tk.ackCh:
		rt.handleAckBatch(tk, ops)
	case <-time.After(d):
	}
	return true
}

// kernelTimedRepoll picks the idle wait of a spout whose NextTuple had
// nothing, from streak: the roots it emitted since its previous idle wait.
// Two or more mean roots came due during that wait, so the wait outlasted
// the gap between the spout's roots and the timer's quantum is what delays
// them; the spout takes the kernel-timed wait. Zero or one mean the timer
// wait fits inside the gap, and a kernel sleep would only hold the P.
func kernelTimedRepoll(streak int) bool {
	return kernelSleepOK && streak >= 2
}

// napSpout is the spout loop's kernel-timed wait. Like parkSpout it
// flushes and publishes first, and it returns at once with the ops or the
// shutdown that already arrived. Otherwise it yields, so that the bolts
// its flush readied on this P run before the P sits in the syscall, and
// waits in futex(2) for spoutRepollInterval or until sendAcks hands over
// ops. Setting napping before the last look at the ack channel, as
// sendAcks sends before it looks at napping, means a wake-up is missed
// only by ops that land between the two; those wait out the interval. The
// loop top takes the ops and shutdown that arrived. full reports that no
// ops cut the wait short: only such a wait ends the spout's streak.
func (rt *runningTopology) napSpout(tk *task) (awake, full bool) {
	rt.flushOut(tk)
	tk.stage.publish(tk, rt.clock.nowNs())
	select {
	case <-rt.ctx.Done():
		return false, false
	case ops := <-tk.ackCh:
		rt.handleAckBatch(tk, ops)
		return true, false
	default:
	}
	runtime.Gosched()
	tk.napping.Store(1)
	if len(tk.ackCh) == 0 {
		futexWait(&tk.napping, 1, spoutRepollInterval)
		tk.naps++
	}
	tk.napping.Store(0)
	return true, len(tk.ackCh) == 0
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
	streak := 0 // roots emitted since the last idle wait
	for {
		select {
		case <-rt.ctx.Done():
			return
		default:
		}
		rt.maybeRebuild(tk)
		// Apply the ops that arrived, then sweep, then deliver.
		drained := 0
		for drained < 64 {
			select {
			case ops := <-tk.ackCh:
				rt.handleAckBatch(tk, ops)
				drained++
				continue
			default:
			}
			break
		}
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
			if !rt.parkSpout(tk, spoutThrottleRecheck) {
				return
			}
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
			streak++
			continue
		}
		if kernelTimedRepoll(streak) {
			awake, full := rt.napSpout(tk)
			if !awake {
				return
			}
			if !full {
				continue // ops cut the nap short: the spout is still busy
			}
		} else if !rt.parkSpout(tk, spoutRepollInterval) {
			return
		}
		streak = 0
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

// ackBatch stages ops bound for one spout between flushes.
type ackBatch struct {
	spout *task
	ops   []ackOp
}

type boltCollector struct {
	rt    *runningTopology
	tk    *task
	stage counterStage

	current *Tuple
	xor     uint64 // the current input's edge id XOR every edge produced from it
	failed  bool
	acks    []ackBatch
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
	var ab *ackBatch
	for i := range bc.acks {
		if bc.acks[i].spout.id == owner {
			ab = &bc.acks[i]
			break
		}
	}
	if ab == nil {
		sp := bc.rt.taskOf(owner)
		if sp == nil {
			return
		}
		bc.acks = append(bc.acks, ackBatch{spout: sp}) //dspslint:ignore allocfree one entry per distinct upstream spout, not per tuple
		ab = &bc.acks[len(bc.acks)-1]
	}
	if ab.ops == nil {
		ab.ops = bc.rt.fl.getAcks(bc.rt.effBatch)
	}
	// Free-listed slices hold effBatch ops and are sent when full, so
	// the op always fits.
	n := len(ab.ops)
	ab.ops = ab.ops[:n+1]
	ab.ops[n] = op
	if n+1 >= bc.rt.effBatch {
		bc.rt.sendAcks(ab.spout, ab.ops)
		ab.ops = nil
	}
}

// flushAcks delivers every staged op batch.
//
//dsps:hotpath
func (bc *boltCollector) flushAcks() {
	for i := range bc.acks {
		ab := &bc.acks[i]
		if len(ab.ops) > 0 {
			bc.rt.sendAcks(ab.spout, ab.ops)
			ab.ops = nil
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

// processTuple runs the full per-tuple bolt path: tick bypass, fault
// draws, the interference cost model, Execute, metrics, and the tuple's
// ack op. Returns false when the topology shut down mid-stall.
//
//dsps:hotpath
func (rt *runningTopology) processTuple(tk *task, collector *boltCollector, tpl *Tuple, enqueuedNs int64) bool {
	if tpl.IsTick() {
		// Ticks bypass the fault/cost/ack machinery: they exist only to
		// advance bolt-internal time.
		collector.current = tpl
		collector.failed = false
		tk.bolt.Execute(tpl)
		collector.current = nil
		return true
	}
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
		select {
		case <-rt.ctx.Done():
			return false
		case <-tk.stop:
			// A forced scale-down retires even a stalled executor; the
			// batch's unprocessed roots fail via ack timeout.
			return false
		case <-time.After(10 * time.Millisecond):
		}
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

// runBolt is the bolt executor loop: drain every producer ring, flush,
// and when every ring is dry park on the waiter at once. Spinning first
// (yield-probing before the park) was measured and lost: it bought idle
// latency with a busy core (DESIGN.md › Fast-path ledger).
func (rt *runningTopology) runBolt(tk *task) {
	defer rt.wg.Done()
	defer close(tk.done)
	collector := &boltCollector{rt: rt, tk: tk}
	tk.stage = &collector.stage
	tk.bolt.Prepare(rt.taskContext(tk), collector)
	if tk.tickInterval > 0 {
		rt.wg.Add(1)
		go rt.runTicker(tk)
	}
	for {
		rt.maybeRebuild(tk)
		select {
		case <-rt.ctx.Done():
			return
		case <-tk.stop:
			// Drain request from ScaleDown: everything emitted or staged
			// goes out before the executor settles; unprocessed input stays
			// in the rings for retireTask to reclaim.
			collector.settle()
			return
		default:
		}
		processed, ok := rt.drainInRings(tk, collector)
		if !ok {
			return
		}
		if processed > 0 {
			// Bolts emit only while processing input, so flushing here
			// (rather than on a deadline) bounds output latency by the
			// input batch and leaves nothing buffered while idle.
			collector.settle()
			continue
		}
		// Park. Prepare publishes the parked flag before the emptiness
		// re-check, closing the race against a concurrent push+Wake.
		rt.pruneInRings(tk)
		tk.ringWait.Prepare()
		if !rt.inRingsEmpty(tk) {
			tk.ringWait.Cancel()
			continue
		}
		tk.counters.ringParks.Add(1)
		wake := rt.spliceWake.Load()
		select {
		case <-rt.ctx.Done():
			tk.ringWait.Cancel()
			return
		case <-tk.stop:
			tk.ringWait.Cancel()
			collector.settle()
			return
		case <-*wake:
			// A splice advanced the route epoch; loop so even an idle bolt
			// re-acks it promptly (ScaleDown waits on that convergence).
			tk.ringWait.Cancel()
		case <-tk.ringWait.C():
		}
	}
}

// processBatch releases the batch's queue reservation, runs every tuple
// through the bolt, and recycles the batch slices. Returns false when the
// topology shut down mid-batch.
//
//dsps:hotpath
func (rt *runningTopology) processBatch(tk *task, collector *boltCollector, batch envBatch) bool {
	tk.release(int64(batch.size()))
	for i, tpl := range batch.tuples {
		if !rt.processTuple(tk, collector, tpl, batch.ns[i]) {
			return false
		}
	}
	rt.fl.putEnvs(batch)
	return true
}

// runTicker feeds tick tuples to a bolt task at its declared interval.
// Sends are non-blocking: a saturated queue drops the tick rather than
// adding backpressure (Storm's semantics — ticks are best-effort).
//
//dsps:ringproducer
func (rt *runningTopology) runTicker(tk *task) {
	defer rt.wg.Done()
	ticker := time.NewTicker(tk.tickInterval)
	defer ticker.Stop()
	// The ticker goroutine is a producer in its own right, so it owns a
	// private ring to its bolt — it must never share the executor
	// goroutine's outRings cache.
	var tickRing *ring.SPSC[envBatch]
	for {
		select {
		case <-rt.ctx.Done():
			return
		case <-tk.stop:
			return
		case <-ticker.C:
			// The self-send rides the splice read lock like any producer:
			// once ScaleDown marks the task dead under the write lock, no
			// tick can slip into the rings it is about to reclaim.
			rt.spliceMu.RLock()
			if tk.dead.Load() {
				rt.spliceMu.RUnlock()
				return
			}
			if !tk.reserve(1, int64(rt.cfg.QueueSize)) {
				rt.spliceMu.RUnlock()
				continue // full queue drops the tick
			}
			b := rt.fl.getEnvs(1)
			b.add(&Tuple{SourceComponent: TickComponent}, rt.clock.nowNs())
			if tickRing == nil {
				tickRing = rt.attachInRingLocked(tk)
			}
			if !tickRing.Push(b) {
				// Defensive: back the reservation out (see sendBatch).
				tk.release(1)
				rt.spliceMu.RUnlock()
				continue
			}
			rt.spliceMu.RUnlock()
			tk.ringWait.Wake()
		}
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
