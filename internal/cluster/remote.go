package cluster

import (
	"fmt"
	"time"

	"predstream/internal/dsps"
)

// RemoteEngine presents one worker's engine through the same interface
// the in-process engine exposes (core.Engine), so the existing control
// loop drives a remote worker without knowing a wire is involved. It
// binds to the worker *name*, not a connection: calls made while the
// worker is dead fail, and resume against the rejoined session once the
// worker reconnects — the control loop just sees transient step errors
// across a crash.
type RemoteEngine struct {
	coord *Coordinator
	name  string

	queueSize int
}

// Engine returns a RemoteEngine for a currently live worker. QueueSize is
// captured from the worker's Hello (it is engine configuration, not
// runtime state, so it stays valid across rejoins of the same command
// line).
func (c *Coordinator) Engine(name string) (*RemoteEngine, error) {
	s, err := c.session(name)
	if err != nil {
		return nil, err
	}
	return &RemoteEngine{coord: c, name: name, queueSize: int(s.hello.QueueSize)}, nil
}

// call resolves the worker's current live session and round-trips cmd.
func (e *RemoteEngine) call(cmd Command, extra time.Duration) (Result, error) {
	s, err := e.coord.session(e.name)
	if err != nil {
		return Result{}, err
	}
	res, err := s.call(cmd, commandTimeout+extra)
	if err != nil {
		return Result{}, err
	}
	if res.Status != StatusOK {
		return res, fmt.Errorf("cluster: worker %s: op %#x: status %d: %s", e.name, cmd.Op, res.Status, res.Detail)
	}
	return res, nil
}

// Snapshot fetches a fresh engine snapshot over the wire. If the worker
// is unreachable it falls back to the last snapshot the worker shipped,
// and failing that returns an empty snapshot — never nil, because the
// control loop dereferences the result unconditionally.
func (e *RemoteEngine) Snapshot() *dsps.Snapshot {
	res, err := e.call(Command{Op: OpSnapshot}, 0)
	if err == nil && res.Snap != nil {
		return res.Snap
	}
	if s, serr := e.coord.session(e.name); serr == nil {
		s.mu.Lock()
		snap := s.snap
		s.mu.Unlock()
		if snap != nil {
			return snap
		}
	}
	return &dsps.Snapshot{At: time.Now()}
}

// QueueSize reports the worker engine's per-executor queue bound.
func (e *RemoteEngine) QueueSize() int { return e.queueSize }

// ScaleUp adds n executors to a component on the remote engine.
func (e *RemoteEngine) ScaleUp(topology, component string, n int) error {
	_, err := e.call(Command{Op: OpScaleUp, Topology: topology, Component: component, N: n}, 0)
	return err
}

// ScaleDown retires n executors from a component on the remote engine,
// waiting up to drainTimeout worker-side for their queues to empty.
func (e *RemoteEngine) ScaleDown(topology, component string, n int, drainTimeout time.Duration) error {
	_, err := e.call(Command{
		Op: OpScaleDown, Topology: topology, Component: component,
		N: n, Timeout: drainTimeout,
	}, drainTimeout)
	return err
}

// InjectFault injects a fault into one of the remote engine's simulated
// workers (chaos over the wire).
func (e *RemoteEngine) InjectFault(worker string, f dsps.Fault) error {
	_, err := e.call(Command{Op: OpInjectFault, Worker: worker, Fault: f}, 0)
	return err
}

// ClearFault clears any fault on one of the remote engine's simulated
// workers.
func (e *RemoteEngine) ClearFault(worker string) error {
	_, err := e.call(Command{Op: OpClearFault, Worker: worker}, 0)
	return err
}

// RemoteGrouping actuates one component's dynamic-grouping ratios on a
// remote worker. It satisfies core.RatioActuator, so a control target can
// point at a component living in another process.
type RemoteGrouping struct {
	coord     *Coordinator
	name      string
	component string
}

// Grouping returns a ratio actuator for component on worker name. No
// liveness check happens here — SetRatios reports the error if the worker
// is down or has no such dynamic grouping.
func (c *Coordinator) Grouping(name, component string) *RemoteGrouping {
	return &RemoteGrouping{coord: c, name: name, component: component}
}

// SetRatios ships the ratio vector to the worker's dynamic grouping.
func (g *RemoteGrouping) SetRatios(ratios []float64) error {
	s, err := g.coord.session(g.name)
	if err != nil {
		return err
	}
	res, err := s.call(Command{Op: OpSetRatios, Component: g.component, Ratios: ratios},
		commandTimeout)
	if err != nil {
		return err
	}
	if res.Status != StatusOK {
		return fmt.Errorf("cluster: worker %s: set ratios %s: %s", g.name, g.component, res.Detail)
	}
	return nil
}
