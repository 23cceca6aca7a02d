package dsps

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"
)

// Live executor scaling. Parallelism is an actuatable runtime property:
// ScaleUp spawns extra bolt executors and splices them into every fan-out
// table feeding the component; ScaleDown drains the highest-index
// executors through a staged protocol (splice out → producer convergence →
// flush in-flight → settle acks → stop → retire) that preserves tuple
// conservation and the chaos invariants throughout. See DESIGN.md
// "Elastic runtime" for the state machine and lock ordering.

// defaultDrainTimeout bounds ScaleDown's cooperative drain when the caller
// passes no budget. Generous enough for a full queue at realistic service
// costs; a stalled executor past it is force-stopped (its in-flight roots
// fail via ack timeout, like a Storm rebalance).
const defaultDrainTimeout = 5 * time.Second

// ErrScaleFloor is returned when a ScaleDown would leave a component with
// no executors.
var ErrScaleFloor = fmt.Errorf("dsps: scale down below parallelism 1")

// ScaleUp adds n executors to a bolt component of a running topology and
// splices them into every subscription feeding it. New tasks get fresh
// cluster-global ids and monotonically increasing task indices (indices of
// retired tasks are never reused), so fan-out tables stay index-sorted and
// dynamic-grouping ratio vectors keep their positional meaning. Spouts
// cannot be scaled (their parallelism anchors conservation accounting).
func (c *Cluster) ScaleUp(topology, component string, n int) error {
	rt := c.findTopology(topology)
	if rt == nil {
		return fmt.Errorf("dsps: topology %q not running", topology)
	}
	if err := rt.scaleUp(component, n); err != nil {
		return err
	}
	c.emit(EventInfo, "component scaled up",
		"topology", topology, "component", component,
		"delta", strconv.Itoa(n),
		"parallelism", strconv.Itoa(rt.liveParallelism(component)))
	return nil
}

// ScaleDown drains and retires n executors of a bolt component (highest
// task index first), keeping at least one. drainTimeout bounds the
// cooperative drain; zero or negative selects a 5s default. On timeout the
// victim is force-stopped: tuples still queued there are discarded and
// their roots fail through the ack-timeout sweep, so conservation holds at
// the next quiescent checkpoint. Retired executors keep their final
// counters in snapshots (TaskStats.Retired) so totals stay monotone.
func (c *Cluster) ScaleDown(topology, component string, n int, drainTimeout time.Duration) error {
	rt := c.findTopology(topology)
	if rt == nil {
		return fmt.Errorf("dsps: topology %q not running", topology)
	}
	forced, err := rt.scaleDown(component, n, drainTimeout)
	if err != nil {
		return err
	}
	level := EventInfo
	msg := "component scaled down"
	if forced > 0 {
		level = EventWarn
		msg = "component scaled down (forced)"
	}
	c.emit(level, msg,
		"topology", topology, "component", component,
		"delta", strconv.Itoa(n),
		"forced", strconv.Itoa(forced),
		"parallelism", strconv.Itoa(rt.liveParallelism(component)))
	return nil
}

// ComponentParallelism returns the live executor count of a component, or
// 0 if the topology or component is not running.
func (c *Cluster) ComponentParallelism(topology, component string) int {
	rt := c.findTopology(topology)
	if rt == nil {
		return 0
	}
	return rt.liveParallelism(component)
}

// findTopology resolves a running topology by name.
func (c *Cluster) findTopology(name string) *runningTopology {
	for _, rt := range c.snapshotTops() {
		if rt.topo.Name == name {
			return rt
		}
	}
	return nil
}

// boltDeclOf returns the declaration of a bolt component, or nil.
func (t *Topology) boltDeclOf(name string) *boltDecl {
	for _, bd := range t.bolts {
		if bd.name == name {
			return bd
		}
	}
	return nil
}

// liveParallelism counts the live (non-retired) tasks of a component.
func (rt *runningTopology) liveParallelism(component string) int {
	rt.tasksMu.RLock()
	defer rt.tasksMu.RUnlock()
	n := 0
	for _, tk := range rt.tasks {
		if tk.component == component {
			n++
		}
	}
	return n
}

// liveTasksOf returns the live tasks of a component in task-index order
// (rt.tasks preserves it: initial tasks are built in index order and
// spawns append with strictly larger indices).
func (rt *runningTopology) liveTasksOf(component string) []*task {
	rt.tasksMu.RLock()
	defer rt.tasksMu.RUnlock()
	var out []*task
	for _, tk := range rt.tasks {
		if tk.component == component {
			out = append(out, tk)
		}
	}
	return out
}

// inEdgesOf returns every edge whose fan-out table feeds component, in
// declaration order.
func (rt *runningTopology) inEdgesOf(component string) []*edge {
	var out []*edge
	for _, e := range rt.allEdges {
		if e.targetComp == component {
			out = append(out, e)
		}
	}
	return out
}

func (rt *runningTopology) scaleUp(component string, n int) error {
	if n <= 0 {
		return fmt.Errorf("dsps: scale up by %d", n)
	}
	bd := rt.topo.boltDeclOf(component)
	if bd == nil {
		return fmt.Errorf("dsps: component %q is not a scalable bolt", component)
	}
	rt.scaleMu.Lock()
	defer rt.scaleMu.Unlock()
	if rt.ctx.Err() != nil {
		return fmt.Errorf("dsps: topology %q stopped", rt.topo.Name)
	}
	spawned := make([]*task, 0, n)
	for i := 0; i < n; i++ {
		tk, err := rt.spawnTask(bd)
		if err != nil {
			return err
		}
		spawned = append(spawned, tk)
	}
	// Splice the new executors into every subscription feeding the
	// component. Appending keeps the table index-sorted; producers pick up
	// the wider fan-out at their next route rebuild.
	rt.splice(func() {
		for _, e := range rt.inEdgesOf(component) {
			cur := *e.targets.Load()
			next := make([]*task, 0, len(cur)+len(spawned))
			next = append(next, cur...)
			next = append(next, spawned...)
			e.targets.Store(&next)
		}
	})
	rt.scaleUps.Add(int64(n))
	return nil
}

// spawnTask builds, registers and starts one new executor for a bolt
// declaration. Called with scaleMu held.
func (rt *runningTopology) spawnTask(bd *boltDecl) (*task, error) {
	c := rt.cluster
	c.mu.Lock()
	id := c.nextTask
	c.nextTask++
	c.mu.Unlock()
	// Same per-task seed derivation as buildRuntime, so spawned executors
	// draw reproducible, non-colliding edge-id streams.
	taskSeed := rt.cfg.Seed + int64(id) + 1
	tk := &task{
		id:           id,
		component:    bd.name,
		numTasks:     rt.liveParallelism(bd.name) + 1,
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
		return nil, fmt.Errorf("dsps: bolt factory for %q returned nil", bd.name)
	}
	rt.initBoltInput(tk)
	tk.outEdges = rt.edges[bd.name]
	tk.outFields = rt.fieldsOf(bd.name)
	rt.tasksMu.Lock()
	tk.index = rt.nextIndex[bd.name]
	rt.nextIndex[bd.name] = tk.index + 1
	tk.worker = rt.workers[rt.placed%len(rt.workers)]
	rt.placed++
	rt.tasks = append(rt.tasks, tk)
	old := *rt.taskByID.Load()
	next := make(map[int]*task, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[tk.id] = tk
	rt.taskByID.Store(&next)
	rt.tasksMu.Unlock()
	// Build the initial route cache before the goroutine starts; the
	// splice that follows bumps the epoch and triggers a lazy rebuild.
	rt.rebuildOuts(tk, rt.routeEpoch.Load())
	rt.wg.Add(1)
	go rt.runBolt(tk)
	return tk, nil
}

// scaleDown runs the drain protocol and reports how many victims needed a
// forced stop.
func (rt *runningTopology) scaleDown(component string, n int, drainTimeout time.Duration) (forced int, err error) {
	if n <= 0 {
		return 0, fmt.Errorf("dsps: scale down by %d", n)
	}
	if rt.topo.boltDeclOf(component) == nil {
		return 0, fmt.Errorf("dsps: component %q is not a scalable bolt", component)
	}
	if drainTimeout <= 0 {
		drainTimeout = defaultDrainTimeout
	}
	rt.scaleMu.Lock()
	defer rt.scaleMu.Unlock()
	if rt.ctx.Err() != nil {
		return 0, fmt.Errorf("dsps: topology %q stopped", rt.topo.Name)
	}
	live := rt.liveTasksOf(component)
	if len(live)-n < 1 {
		return 0, fmt.Errorf("%w: component %q has %d executors, asked to remove %d",
			ErrScaleFloor, component, len(live), n)
	}
	victims := live[len(live)-n:]
	isVictim := make(map[int]bool, len(victims))
	for _, v := range victims {
		isVictim[v.id] = true
	}
	deadline := time.Now().Add(drainTimeout)

	// SPLICED: publish victim-free fan-out tables and bump the epoch.
	epoch := rt.splice(func() {
		for _, e := range rt.inEdgesOf(component) {
			cur := *e.targets.Load()
			next := make([]*task, 0, len(cur)-len(victims))
			for _, t := range cur {
				if !isVictim[t.id] {
					next = append(next, t)
				}
			}
			e.targets.Store(&next)
		}
	})

	// FLUSHING: wait for every producer of the component to rebuild its
	// routes (after which nothing new can be emitted toward a victim),
	// then for each victim's in-flight work to settle. A timeout at
	// either step falls through to a forced stop.
	clean := rt.awaitProducers(component, isVictim, epoch, deadline)
	for _, v := range victims {
		settled := clean && rt.awaitIdle(v, deadline)

		// SETTLED → STOPPED: the executor flushes staged output and acks
		// on its way out, then closes done.
		close(v.stop)
		if !rt.awaitDone(v, deadline.Add(2*time.Second)) {
			// Cooperative stop failed (should not happen: every blocking
			// point in the run loop observes stop). Leave the task
			// detached rather than reclaim state it still owns.
			return forced, fmt.Errorf("dsps: task %d of %q did not stop while scaling down",
				v.id, component)
		}

		// RETIRED: mark the task dead under the splice lock — after this
		// no parked send or tick can reach its queue — then reclaim it.
		rt.spliceMu.Lock()
		v.dead.Store(true)
		rt.spliceMu.Unlock()
		if lost := rt.retireTask(v); lost > 0 || !settled {
			forced++
		}
	}
	rt.scaleDowns.Add(int64(n))
	return forced, nil
}

// awaitProducers waits until every live executor that feeds component has
// rebuilt its routes against epoch (or later). Victims are excluded: their
// own routing no longer matters and a stalled victim must not wedge the
// drain.
func (rt *runningTopology) awaitProducers(component string, isVictim map[int]bool, epoch uint64, deadline time.Time) bool {
	sources := make(map[string]bool)
	for _, e := range rt.inEdgesOf(component) {
		sources[e.source] = true
	}
	for {
		converged := true
		rt.tasksMu.RLock()
		for _, tk := range rt.tasks {
			if isVictim[tk.id] || !sources[tk.component] {
				continue
			}
			if tk.routeGen.Load() < epoch {
				converged = false
				break
			}
		}
		rt.tasksMu.RUnlock()
		if converged {
			return true
		}
		if rt.ctx.Err() != nil || !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// awaitIdle waits until no batch is queued at, parked toward, or buffered
// inside v.
func (rt *runningTopology) awaitIdle(v *task, deadline time.Time) bool {
	for {
		if v.inbound.Load() == 0 && v.queued.Load() == 0 && v.outPending.Load() == 0 {
			return true
		}
		if rt.ctx.Err() != nil || !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// awaitDone waits for the executor goroutine to exit.
func (rt *runningTopology) awaitDone(v *task, deadline time.Time) bool {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-v.done:
		return true
	case <-timer.C:
		return false
	}
}

// retireTask reclaims a stopped, dead executor: drops whatever is still
// queued (forced path only — zero after a clean drain), purges un-flushed
// out-buffers, runs Cleanup, and moves the task's final counters to the
// retired list so snapshot totals stay monotone. Returns the number of
// discarded queued tuples.
//
// Carries both ring annotations: the executor has exited and dead was set
// under the splice write lock, so ownership of both ring sides has
// transferred to this goroutine (see the comment inside).
//
//dsps:ringproducer
//dsps:ringconsumer
func (rt *runningTopology) retireTask(v *task) int {
	lost := 0
	if rt.cfg.Rings {
		// The executor goroutine has exited (awaitDone) and dead was set
		// under the splice write lock, so no producer can push again:
		// ownership of both ring sides has transferred to this goroutine.
		if p := v.inRings.Load(); p != nil {
			for _, r := range *p {
				r.Close()
				for {
					b, ok := r.Pop()
					if !ok {
						break
					}
					lost += b.size()
					rt.fl.putEnvs(b)
				}
			}
		}
		// Close this task's producer-side rings so downstream consumers
		// prune them once drained.
		for _, r := range v.outRings {
			r.Close()
		}
		v.outRings = nil
	} else {
		for {
			select {
			case b := <-v.inCh:
				lost += b.size()
				rt.fl.putEnvs(b)
				continue
			default:
			}
			break
		}
	}
	if lost > 0 {
		v.queued.Add(int64(-lost))
		v.counters.dropped.Add(int64(lost))
	}
	for i := range v.outs {
		ob := &v.outs[i]
		if ob.envs.size() > 0 {
			v.outPending.Add(int64(-ob.envs.size()))
			rt.fl.putEnvs(ob.envs)
			ob.envs = envBatch{}
		}
	}
	v.bolt.Cleanup()
	rt.tasksMu.Lock()
	for i, tk := range rt.tasks {
		if tk == v {
			rt.tasks = append(rt.tasks[:i], rt.tasks[i+1:]...)
			break
		}
	}
	old := *rt.taskByID.Load()
	next := make(map[int]*task, len(old))
	for k, t := range old {
		if k != v.id {
			next[k] = t
		}
	}
	rt.taskByID.Store(&next)
	ts := rt.taskStats(v)
	ts.Retired = true
	ts.QueueLen = 0
	rt.retired = append(rt.retired, ts)
	rt.tasksMu.Unlock()
	return lost
}
