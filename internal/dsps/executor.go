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
	single     singleSelector // non-nil fast path when grouping picks one target
	source     string         // producing component
	targetComp string         // consuming component
	targets    atomic.Pointer[[]*task]
}

// outBuf accumulates tuples bound for one (edge, target) pair until a
// size- or deadline-triggered flush hands the whole batch to the target's
// input queue (channel or ring). Owned by the emitting executor
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

	inCh  chan envBatch    // bolts only; nil on the ring plane
	ackCh chan []ackResult // spouts only
	space chan struct{}    // bolts only: capacity-freed wakeup signal
	stop  chan struct{}    // closed by ScaleDown to drain this executor
	done  chan struct{}    // closed when the executor goroutine exits
	rng   *rand.Rand       // fault-probability draws; executor-goroutine-local

	// Ring-plane input (cfg.Rings; bolts only). inRings is the
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
	// outPending counts envelopes sitting in this task's out-buffers,
	// emitted but not yet flushed downstream; quiescence requires zero.
	outPending atomic.Int64

	counters taskCounters
	slots    slotPool // spout: its acker slots; executor-goroutine-local

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

	// Ring-plane producer state, owned by the executor goroutine: the
	// SPSC ring this task pushes through to each downstream target.
	outRings map[*task]*ring.SPSC[envBatch]
	// ackerU64 is the spout's AckerU64 implementation, or nil; cached so
	// the typed-lane completion path is one nil check, not a per-ack
	// type assertion.
	ackerU64 AckerU64
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
				ackCh:     make(chan []ackResult, c.cfg.MaxSpoutPending),
				stop:      make(chan struct{}),
				done:      make(chan struct{}),
				rng:       rand.New(rand.NewSource(taskSeed)),
				edgeState: uint64(taskSeed),
			}
			if tk.spout == nil {
				rt.cancel()
				return nil, fmt.Errorf("dsps: spout factory for %q returned nil", sd.name)
			}
			tk.ackerU64, _ = tk.spout.(AckerU64)
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
			if s, ok := sub.grouping.(singleSelector); ok {
				e.single = s
			}
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

// initBoltInput wires a bolt task's input queue for the active data
// plane: a QueueSize-slot channel on the channel plane, an (initially
// empty) list of per-producer SPSC rings plus a park/wake waiter on the
// ring plane. Either way the queue bound is enforced in tuples by
// reserve(), and sizing at QueueSize slots means a reserved batch (≥1
// tuple each) always finds a free slot, so the hand-off after a
// successful reservation never blocks.
func (rt *runningTopology) initBoltInput(tk *task) {
	if !rt.cfg.Rings {
		tk.inCh = make(chan envBatch, rt.cfg.QueueSize)
		return
	}
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

// sendAcks delivers a batch of completions to a spout task, bailing out on
// shutdown. The ack channel holds MaxSpoutPending batches of at least one
// root each. A spout calls NextTuple only below MaxSpoutPending incomplete
// roots, but one NextTuple may emit several, so more roots than that can
// be incomplete at once and this send can block. It then waits until the
// spout's loop next drains its ack channel, which it does before every
// NextTuple and in every park.
func (rt *runningTopology) sendAcks(sp *task, results []ackResult) {
	select {
	case sp.ackCh <- results:
	case <-rt.ctx.Done():
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
	// Ack-timeout sweeper: expired roots are grouped per spout and
	// delivered in batches (cold path, so the per-sweep map is fine).
	rt.wg.Add(1)
	go func() {
		defer rt.wg.Done()
		period := rt.cfg.AckTimeout / 2
		if period < 10*time.Millisecond {
			period = 10 * time.Millisecond
		}
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		for {
			select {
			case <-rt.ctx.Done():
				return
			case <-ticker.C:
				expired := rt.acker.sweep()
				if len(expired) == 0 {
					continue
				}
				bySpout := map[*task][]ackResult{}
				for _, r := range expired {
					if sp := rt.taskOf(r.spoutTID); sp != nil {
						bySpout[sp] = append(bySpout[sp], r)
					}
				}
				for sp, rs := range bySpout {
					rt.sendAcks(sp, rs)
				}
			}
		}
	}()
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
		if tk.queued.Load() != 0 || tk.outPending.Load() != 0 {
			return false
		}
		if tk.ackCh != nil && len(tk.ackCh) > 0 {
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
// tk.selScratch as outs indices, returning the selection count. Single-
// target groupings go through the selectOne fast path; only AllGrouping
// (and third-party groupings) pay the Select allocation.
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
		base := tk.edgeBase[ei]
		if e.single != nil {
			if idx := e.single.selectOne(tpl, nt); idx >= 0 && idx < nt {
				sel = append(sel, base+idx) //dspslint:ignore allocfree selScratch retains capacity across emits; grows only until the fan-out stabilizes
			}
			continue
		}
		for _, idx := range e.grouping.Select(tpl, nt) {
			if idx >= 0 && idx < nt {
				sel = append(sel, base+idx) //dspslint:ignore allocfree selScratch retains capacity across emits; grows only until the fan-out stabilizes
			}
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
	}
	if tk.firstBufNs == 0 {
		tk.firstBufNs = nowNs
	}
	ob.envs.add(tpl, nowNs)
	tk.outPending.Add(1)
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

// sendBatch enqueues a batch, blocking for backpressure but bailing out on
// shutdown. Backpressure is tuple-denominated: the producer reserves
// len(envs) slots against the target's QueueSize before the hand-off, and
// the channel itself (sized at QueueSize slots) never blocks a reserved
// send. When the batch rides a *dynamic* edge and the target's queue
// stays full, the grouping is re-consulted periodically: if the controller
// has since steered traffic away from a misbehaving target, the waiting
// batch is re-directed instead of wedging its producer — the paper's
// "re-direct data tuples to bypass misbehaving workers" applied to
// in-flight emissions. Non-dynamic edges never re-route (fields grouping
// correctness depends on stable key→task assignment).
//
// The reserve+hand-off rides the topology splice read lock: it never
// blocks while held (a reserved send always finds a channel slot), and it
// orders the send against ScaleDown's retire sequence — once the retirer
// has set target.dead under the write lock, no further batch can land in
// the dead queue, so reclaiming it is race-free. A batch parked against a
// since-retired target re-homes to a live sibling through the edge's
// current fan-out table.
//
//dsps:hotpath
//dsps:ringproducer
func (rt *runningTopology) sendBatch(src *task, e *edge, target *task, envs envBatch) {
	n := int64(envs.size())
	bound := int64(rt.cfg.QueueSize)
	dg, dynamic := e.grouping.(*DynamicGrouping)
	retry := blockedRecheck
	if dynamic {
		retry = rerouteRetry
	}
	waited := false
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
				src.outPending.Add(-n)
				rt.fl.putEnvs(envs)
				return
			}
			idx := 0
			if e.single != nil {
				if i := e.single.selectOne(envs.tuples[0], len(tl)); i >= 0 && i < len(tl) {
					idx = i
				}
			}
			target.inbound.Add(-1)
			target = tl[idx]
			target.inbound.Add(1)
			continue
		}
		if target.reserve(n, bound) {
			if rt.cfg.Rings {
				r := src.outRings[target]
				if r == nil {
					r = rt.attachInRingLocked(target)
					if src.outRings == nil {
						src.outRings = make(map[*task]*ring.SPSC[envBatch]) //dspslint:ignore allocfree one-time lazy init per source task on first ring attach
					}
					src.outRings[target] = r
				}
				// Reserved tuples ≤ QueueSize and every in-flight batch
				// holds ≥ 1 of them, so a ring with ≥ QueueSize batch slots
				// always has room for a reserved push; the failure arm is
				// defensive (it would indicate a reservation accounting bug)
				// and backs out rather than losing the batch.
				if !r.Push(envs) {
					target.release(n)
					rt.spliceMu.RUnlock()
					runtime.Gosched()
					continue
				}
				rt.spliceMu.RUnlock()
				target.ringWait.Wake()
			} else {
				//dspslint:ignore lockedsend reserved send never blocks; the splice read lock orders it against fan-out splices
				target.inCh <- envs
				rt.spliceMu.RUnlock()
			}
			target.inbound.Add(-1)
			src.outPending.Add(-n)
			src.counters.batches.Add(1)
			return
		}
		rt.spliceMu.RUnlock()
		if !waited {
			waited = true
			src.counters.bpWaits.Add(1)
		}
		select {
		case <-target.space:
		case <-rt.ctx.Done():
			target.inbound.Add(-1)
			src.outPending.Add(-n)
			return
		case <-src.stop:
			// The producer itself is being drained: abandon the blocked
			// send so its executor can settle (the batch's roots fail via
			// ack timeout, exactly like a Storm rebalance).
			target.inbound.Add(-1)
			src.outPending.Add(-n)
			rt.fl.putEnvs(envs)
			return
		case <-time.After(retry):
			if dynamic {
				tl := *e.targets.Load()
				if idx := dg.selectOne(envs.tuples[0], len(tl)); idx >= 0 && idx < len(tl) {
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
	rt *runningTopology
	tk *task
}

// Emit implements SpoutCollector. Called only from the spout's executor
// goroutine.
//
//dsps:hotpath
func (sc *spoutCollector) Emit(values Values, msgID any) {
	tpl := sc.tk.arena.get()
	tpl.Values = values
	sc.emit(tpl, msgID, 0, msgID != nil)
}

// EmitInt64 implements SpoutCollector: the payload rides the tuple's
// int64 lane and the anchor its uint64 lane, so nothing boxes.
//
//dsps:hotpath
func (sc *spoutCollector) EmitInt64(v int64, msgID uint64) {
	tpl := sc.tk.arena.get()
	tpl.lane = laneI64
	tpl.i64 = v
	sc.emit(tpl, nil, msgID, msgID != 0)
}

// EmitFloat64 implements SpoutCollector.
//
//dsps:hotpath
func (sc *spoutCollector) EmitFloat64(v float64, msgID uint64) {
	tpl := sc.tk.arena.get()
	tpl.lane = laneF64
	tpl.f64 = v
	sc.emit(tpl, nil, msgID, msgID != 0)
}

// emit is the shared spout emit core: route, anchor, trace, enqueue.
// Exactly one of msgID/msgU64 carries the anchor when anchored is true.
//
//dsps:hotpath
func (sc *spoutCollector) emit(tpl *Tuple, msgID any, msgU64 uint64, anchored bool) {
	rt, tk := sc.rt, sc.tk
	tpl.SourceComponent = tk.component
	tpl.SourceTask = tk.id
	tpl.fields = tk.outFields
	nsel := rt.routeInto(tk, tpl)
	now := rt.clock.nowNs()
	if anchored {
		if nsel == 0 {
			// Nothing downstream: complete immediately.
			tk.counters.acked.Add(1)
			if msgID != nil {
				tk.spout.Ack(msgID)
			} else if tk.ackerU64 != nil {
				tk.ackerU64.AckU64(msgU64)
			} else {
				tk.spout.Ack(msgU64) //dspslint:ignore allocfree untyped-spout fallback boxes the id; spouts implementing AckerU64 take the box-free lane
			}
			tk.counters.emitted.Add(1)
			return
		}
		// Draw every edge id and register the root *before* the first
		// tuple can leave (a size-triggered flush inside enqueue may
		// hand tuples to a downstream executor immediately), so no
		// transition can reach the slot before its root does.
		rootID := tk.nextEdgeID()
		ids := tk.idScratch[:0]
		var xor uint64
		for i := 0; i < nsel; i++ {
			id := tk.nextEdgeID()
			ids = append(ids, id) //dspslint:ignore allocfree idScratch retains capacity across emits; grows only until the fan-out stabilizes
			xor ^= id
		}
		tk.idScratch = ids
		slot := rt.acker.register(&tk.slots, rootID, xor, msgID, msgU64, tk.id)
		// Record the emit span before the first enqueue so a sampled
		// root's emit always sequences ahead of its descendants' exec
		// spans (enqueue may flush downstream immediately).
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
				// Each anchored delivery carries its own edge id, so
				// fan-out needs distinct tuple headers.
				t = tk.arena.get()
				*t = *tpl
			}
			t.rootID = rootID
			t.slot = slot
			t.edgeID = ids[i]
			rt.enqueue(tk, tk.selScratch[i], t, now)
		}
	} else {
		// Unanchored deliveries share one immutable tuple header.
		for i := 0; i < nsel; i++ {
			rt.enqueue(tk, tk.selScratch[i], tpl, now)
		}
	}
	tk.counters.emitted.Add(1)
	tk.counters.executed.Add(1)
}

// handleAckBatch applies a batch of completions to the spout, returns
// their acker slots to the spout's pool, and recycles the slice.
//
//dsps:hotpath
func (rt *runningTopology) handleAckBatch(tk *task, rb []ackResult) {
	for _, r := range rb {
		rt.acker.release(&tk.slots, r.slot)
		if r.ok {
			tk.counters.acked.Add(1)
			tk.counters.completeNs.Add(int64(r.latency))
			tk.counters.completeHist.observe(r.latency)
			switch {
			case !r.hasU64:
				tk.spout.Ack(r.msgID)
			case tk.ackerU64 != nil:
				tk.ackerU64.AckU64(r.msgU64)
			default:
				tk.spout.Ack(r.msgU64) //dspslint:ignore allocfree untyped-spout fallback boxes the id; spouts implementing AckerU64 take the box-free lane
			}
		} else {
			tk.counters.failed.Add(1)
			switch {
			case !r.hasU64:
				tk.spout.Fail(r.msgID)
			case tk.ackerU64 != nil:
				tk.ackerU64.FailU64(r.msgU64)
			default:
				tk.spout.Fail(r.msgU64) //dspslint:ignore allocfree untyped-spout fallback boxes the id; spouts implementing AckerU64 take the box-free lane
			}
		}
	}
	rt.fl.putAcks(rb)
}

// Upper bounds on one spout park; a completion ends either early. A timer
// wait shorter than 1 ms still takes at least 1 ms on Linux (the netpoller's
// epoll_wait sleeps in milliseconds), so the ack channel has to be a wake
// source of the park: an ack left for the timer to find costs a root a full
// quantum of complete latency.
const (
	// spoutRepollInterval is how long a spout whose NextTuple had nothing
	// waits before it asks again.
	spoutRepollInterval = 100 * time.Microsecond
	// spoutThrottleRecheck is how long a paused or MaxSpoutPending-bound
	// spout waits before it re-reads the pause flag.
	spoutThrottleRecheck = time.Millisecond
)

// parkSpout is the spout loop's one wait. It flushes first — the acks that
// would wake the spout may never be produced while tuples sit in its output
// buffers — then blocks until a completion arrives (delivered before it
// returns), d elapses, or the topology stops, for which it returns false.
func (rt *runningTopology) parkSpout(tk *task, d time.Duration) bool {
	rt.flushOut(tk)
	select {
	case <-rt.ctx.Done():
		return false
	case rb := <-tk.ackCh:
		rt.handleAckBatch(tk, rb)
	case <-time.After(d):
	}
	return true
}

func (rt *runningTopology) runSpout(tk *task) {
	defer rt.wg.Done()
	defer close(tk.done)
	collector := &spoutCollector{rt: rt, tk: tk}
	tk.spout.Open(rt.taskContext(tk), collector)
	for {
		select {
		case <-rt.ctx.Done():
			return
		default:
		}
		rt.maybeRebuild(tk)
		// Drain completed roots first.
		drained := 0
		for drained < 64 {
			select {
			case rb := <-tk.ackCh:
				rt.handleAckBatch(tk, rb)
				drained++
				continue
			default:
			}
			break
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
			if cost := tk.execCost; cost > 0 {
				n := tk.worker.node
				busy := n.busy.Add(1)
				over := float64(busy) - float64(n.cores)
				if over > 0 {
					cost = time.Duration(float64(cost) * (1 + over/float64(n.cores)))
				}
				if f, ok := rt.cluster.faults.get(tk.worker.id); ok && f.Slowdown > 1 {
					cost = time.Duration(float64(cost) * f.Slowdown)
				}
				rt.cfg.Delayer.Delay(cost)
				n.busy.Add(-1)
				tk.counters.execNanos.Add(int64(cost))
			}
			// Deadline flush: a partial batch never waits longer than
			// flushInterval past its oldest envelope.
			if tk.firstBufNs != 0 && rt.clock.nowNs()-tk.firstBufNs >= int64(flushInterval) {
				rt.flushOut(tk)
			}
		} else if !rt.parkSpout(tk, spoutRepollInterval) {
			return
		}
	}
}

// --- Bolt executor ---

// ackBatch stages completions bound for one spout between flushes.
type ackBatch struct {
	spout   *task
	results []ackResult
}

type boltCollector struct {
	rt *runningTopology
	tk *task

	current  *Tuple
	produced []uint64
	failed   bool
	acks     []ackBatch
}

// Emit implements OutputCollector. Called only from the bolt's executor
// goroutine during Execute.
//
//dsps:hotpath
func (bc *boltCollector) Emit(values Values) {
	tpl := bc.tk.arena.get()
	tpl.Values = values
	bc.emit(tpl)
}

// EmitInt64 implements OutputCollector: the payload rides the tuple's
// int64 lane, so the emit never boxes.
//
//dsps:hotpath
func (bc *boltCollector) EmitInt64(v int64) {
	tpl := bc.tk.arena.get()
	tpl.lane = laneI64
	tpl.i64 = v
	bc.emit(tpl)
}

// EmitFloat64 implements OutputCollector.
//
//dsps:hotpath
func (bc *boltCollector) EmitFloat64(v float64) {
	tpl := bc.tk.arena.get()
	tpl.lane = laneF64
	tpl.f64 = v
	bc.emit(tpl)
}

// emit is the shared bolt emit core: route, anchor to the current input,
// enqueue.
//
//dsps:hotpath
func (bc *boltCollector) emit(tpl *Tuple) {
	rt, tk := bc.rt, bc.tk
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
			bc.produced = append(bc.produced, id) //dspslint:ignore allocfree produced is reset per input tuple and retains capacity; grows only until the fan-out stabilizes
			rt.enqueue(tk, tk.selScratch[i], t, now)
		}
	} else {
		for i := 0; i < nsel; i++ {
			rt.enqueue(tk, tk.selScratch[i], tpl, now)
		}
	}
	tk.counters.emitted.Add(1)
}

// Fail implements OutputCollector.
func (bc *boltCollector) Fail() { bc.failed = true }

// addAck stages a completion for its spout, flushing that spout's batch
// when full.
//
//dsps:hotpath
func (bc *boltCollector) addAck(r ackResult) {
	var ab *ackBatch
	for i := range bc.acks {
		if bc.acks[i].spout.id == r.spoutTID {
			ab = &bc.acks[i]
			break
		}
	}
	if ab == nil {
		sp := bc.rt.taskOf(r.spoutTID)
		if sp == nil {
			return
		}
		bc.acks = append(bc.acks, ackBatch{spout: sp}) //dspslint:ignore allocfree one entry per distinct upstream spout, not per tuple
		ab = &bc.acks[len(bc.acks)-1]
	}
	if ab.results == nil {
		ab.results = bc.rt.fl.getAcks(bc.rt.effBatch)
	}
	ab.results = append(ab.results, r) //dspslint:ignore allocfree free-listed slice sized to effBatch; flushed before it can grow
	if len(ab.results) >= bc.rt.effBatch {
		bc.rt.sendAcks(ab.spout, ab.results)
		ab.results = nil
	}
}

// flushAcks delivers every staged completion batch.
//
//dsps:hotpath
func (bc *boltCollector) flushAcks() {
	for i := range bc.acks {
		ab := &bc.acks[i]
		if len(ab.results) > 0 {
			bc.rt.sendAcks(ab.spout, ab.results)
			ab.results = nil
		}
	}
}

// ackFail fails the root of an anchored input tuple, staging the
// completion for its spout.
//
//dsps:hotpath
func (rt *runningTopology) ackFail(collector *boltCollector, tpl *Tuple) {
	if r, ok := rt.acker.fail(tpl.slot, tpl.rootID); ok {
		collector.addAck(r)
	}
}

// processTuple runs the full per-tuple bolt path: tick bypass, fault
// draws, the interference cost model, Execute, metrics, and ack-tree
// bookkeeping. Returns false when the topology shut down mid-stall.
//
//dsps:hotpath
func (rt *runningTopology) processTuple(tk *task, collector *boltCollector, tpl *Tuple, enqueuedNs int64) bool {
	n := tk.worker.node
	if tpl.IsTick() {
		// Ticks bypass the fault/cost/ack machinery: they exist only to
		// advance bolt-internal time.
		collector.current = tpl
		collector.produced = collector.produced[:0]
		collector.failed = false
		tk.bolt.Execute(tpl)
		collector.current = nil
		return true
	}
	startNs := rt.clock.nowNs()
	tk.counters.queueNanos.Add(startNs - enqueuedNs)

	fault, faulty := rt.cluster.faults.get(tk.worker.id)
	// A stalled worker hangs mid-processing until the fault clears or the
	// topology shuts down; its queues back up and its roots time out, like
	// a hung JVM.
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
			rt.ackFail(collector, tpl)
		}
		return true
	}

	// Interference model: service cost grows when the node is
	// oversubscribed, and when the worker is slowed by a fault.
	busy := n.busy.Add(1)
	cost := tk.execCost
	if cost > 0 {
		over := float64(busy) - float64(n.cores)
		if over > 0 {
			cost = time.Duration(float64(cost) * (1 + over/float64(n.cores)))
		}
		if faulty && fault.Slowdown > 1 {
			cost = time.Duration(float64(cost) * fault.Slowdown)
		}
		rt.cfg.Delayer.Delay(cost)
	}

	collector.current = tpl
	collector.produced = collector.produced[:0]
	collector.failed = false
	tk.bolt.Execute(tpl)
	n.busy.Add(-1)
	n.executed.Add(1)

	tk.counters.executed.Add(1)
	// Execute latency includes the simulated cost even under NopDelayer so
	// metric series carry the interference signal.
	elapsed := time.Duration(rt.clock.nowNs() - startNs)
	if elapsed < cost {
		elapsed = cost
	}
	tk.counters.execNanos.Add(int64(elapsed))
	tk.counters.execHist.observe(elapsed)

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
		if collector.failed {
			rt.ackFail(collector, tpl)
		} else if r, ok := rt.acker.transition(tpl.slot, tpl.rootID, tpl.edgeID, collector.produced); ok {
			collector.addAck(r)
		}
	}
	collector.current = nil
	return true
}

func (rt *runningTopology) runBolt(tk *task) {
	defer rt.wg.Done()
	defer close(tk.done)
	collector := &boltCollector{rt: rt, tk: tk}
	tk.bolt.Prepare(rt.taskContext(tk), collector)
	if tk.tickInterval > 0 {
		rt.wg.Add(1)
		go rt.runTicker(tk)
	}
	if rt.cfg.Rings {
		rt.runBoltRing(tk, collector)
		return
	}
	for {
		rt.maybeRebuild(tk)
		wake := rt.spliceWake.Load()
		select {
		case <-rt.ctx.Done():
			return
		case <-tk.stop:
			// Drain request from ScaleDown: everything emitted or staged
			// goes out before the executor settles.
			rt.flushOut(tk)
			collector.flushAcks()
			return
		case <-*wake:
			// A splice advanced the route epoch; loop so even an idle bolt
			// re-acks it promptly (ScaleDown waits on that convergence).
		case batch := <-tk.inCh:
			if !rt.processBatch(tk, collector, batch) {
				return
			}
			// Bolts emit only while processing input, so flushing here
			// (rather than on a deadline) bounds output latency by the
			// input batch and leaves nothing buffered while idle.
			rt.flushOut(tk)
			collector.flushAcks()
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
	// On the ring plane the ticker goroutine is a producer in its own
	// right, so it owns a private ring to its bolt — it must never share
	// the executor goroutine's outRings cache.
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
			// tick can slip into the queue it is about to reclaim.
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
			if rt.cfg.Rings {
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
			} else {
				//dspslint:ignore lockedsend reserved tick send never blocks; the splice read lock orders it against retirement
				tk.inCh <- b
				rt.spliceMu.RUnlock()
			}
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
