package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"predstream/internal/chaos"
	"predstream/internal/dsps"
)

// ErrShutdown is returned by Worker.Run when the coordinator commanded
// the worker process to exit (OpShutdown).
var ErrShutdown = errors.New("cluster: worker shut down by coordinator")

// The reconnect backoff starts at backoffMin and doubles up to backoffMax.
const (
	backoffMin = 50 * time.Millisecond
	backoffMax = 2 * time.Second
)

// WorkerConfig wires one engine instance to a coordinator.
type WorkerConfig struct {
	// Name is the worker's stable identity; rejoining after a crash with
	// the same name bumps the coordinator-side generation. Required.
	Name string
	// Coordinator is the coordinator's "host:port". Required.
	Coordinator string
	// Engine is the in-process engine this worker hosts. Required.
	Engine *dsps.Cluster
	// Topology is the name of the (single) topology the engine runs; it
	// is the default target of scale and ratio commands.
	Topology string
	// Groupings maps component name → the dynamic-grouping handle an
	// OpSetRatios for that component actuates.
	Groupings map[string]*dsps.DynamicGrouping
	// Spouts lists spout component names, passed to the invariant check
	// (OpCheckInvariants) for conservation accounting.
	Spouts []string
	// DialTimeout bounds one connection attempt; default 2s.
	DialTimeout time.Duration
	// MinVersion and MaxVersion override the advertised protocol range
	// (tests use this to force negotiation failures); defaults are the
	// package constants.
	MinVersion, MaxVersion uint8
	// Events receives structured connection events; nil disables.
	Events dsps.EventSink
}

// Worker is the worker-side runtime: it dials the coordinator, performs
// the versioned handshake, ships heartbeats and metric snapshots on the
// cadences the Welcome contracted, executes commands against its local
// engine, and reconnects with exponential backoff when the connection
// drops (including after a coordinator-declared heartbeat expiry, e.g. a
// SIGSTOP longer than the dead-after window).
type Worker struct {
	cfg WorkerConfig

	mu         sync.Mutex
	generation uint32
	workerID   string
	joins      int
}

// NewWorker validates cfg and returns an unstarted worker; call Run.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Name == "" {
		return nil, errors.New("cluster: worker name required")
	}
	if cfg.Coordinator == "" {
		return nil, errors.New("cluster: coordinator address required")
	}
	if cfg.Engine == nil {
		return nil, errors.New("cluster: worker engine required")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.MinVersion == 0 {
		cfg.MinVersion = MinVersion
	}
	if cfg.MaxVersion == 0 {
		cfg.MaxVersion = MaxVersion
	}
	if cfg.MaxVersion < cfg.MinVersion {
		return nil, fmt.Errorf("cluster: invalid version range %d-%d", cfg.MinVersion, cfg.MaxVersion)
	}
	return &Worker{cfg: cfg}, nil
}

// Generation returns the generation assigned by the most recent Welcome
// (0 before the first join).
func (w *Worker) Generation() uint32 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.generation
}

// WorkerID returns the session id assigned by the most recent Welcome.
func (w *Worker) WorkerID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.workerID
}

// Joins returns how many times this worker has completed a handshake.
func (w *Worker) Joins() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.joins
}

func (w *Worker) emit(level int, msg string, kv ...string) {
	if w.cfg.Events != nil {
		w.cfg.Events.Event(level, msg, kv...)
	}
}

// Run joins the coordinator and serves until ctx is cancelled (returns
// nil), the coordinator commands shutdown (returns ErrShutdown), or a
// permanent handshake failure occurs (version mismatch or bad hello —
// retrying cannot help, so Run returns the Reject as an error).
// Transient failures — connection refused, duplicate-name while a stale
// session drains, coordinator restart — are retried with backoff.
func (w *Worker) Run(ctx context.Context) error {
	backoff := backoffMin
	for {
		if ctx.Err() != nil {
			return nil
		}
		err := w.runOnce(ctx)
		switch {
		case err == nil:
			// Session ended because ctx was cancelled.
			return nil
		case errors.Is(err, ErrShutdown):
			return err
		case isPermanentReject(err):
			return err
		}
		w.emit(dsps.EventWarn, "worker reconnecting",
			"worker", w.cfg.Name, "backoff", backoff.String(), "cause", err.Error())
		timer := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil
		case <-timer.C:
		}
		backoff = min(2*backoff, backoffMax)
	}
}

// rejectError wraps a coordinator Reject so Run can distinguish permanent
// refusals from transient ones.
type rejectError struct{ r Reject }

func (e rejectError) Error() string {
	return fmt.Sprintf("cluster: join rejected (code %d): %s", e.r.Code, e.r.Detail)
}

func isPermanentReject(err error) bool {
	var re rejectError
	if !errors.As(err, &re) {
		return false
	}
	return re.r.Code == RejectVersion || re.r.Code == RejectBadHello
}

// runOnce performs one connect → handshake → serve cycle. It returns nil
// only when ctx ended the session; any other exit is a reconnect cause.
func (w *Worker) runOnce(ctx context.Context) error {
	conn, err := net.DialTimeout("tcp", w.cfg.Coordinator, w.cfg.DialTimeout)
	if err != nil {
		return err
	}
	welcome, err := w.handshake(conn)
	if err != nil {
		conn.Close()
		return err
	}
	w.mu.Lock()
	w.generation = welcome.Generation
	w.workerID = welcome.WorkerID
	w.joins++
	w.mu.Unlock()
	w.emit(dsps.EventInfo, "worker joined coordinator",
		"worker", w.cfg.Name, "id", welcome.WorkerID,
		"generation", strconv.Itoa(int(welcome.Generation)),
		"version", strconv.Itoa(int(welcome.Version)))

	s := &workerSession{w: w, conn: conn, welcome: welcome}
	return s.serve(ctx)
}

// handshake sends Hello and reads the Welcome (or Reject) under the dial
// timeout.
func (w *Worker) handshake(conn net.Conn) (Welcome, error) {
	controlled := make([]string, 0, len(w.cfg.Groupings))
	for name := range w.cfg.Groupings {
		controlled = append(controlled, name)
	}
	hello := Hello{
		MinVersion: w.cfg.MinVersion,
		MaxVersion: w.cfg.MaxVersion,
		Name:       w.cfg.Name,
		Topology:   w.cfg.Topology,
		QueueSize:  uint32(w.cfg.Engine.QueueSize()),
		Spouts:     w.cfg.Spouts,
		Controlled: controlled,
	}
	conn.SetDeadline(time.Now().Add(w.cfg.DialTimeout))
	defer conn.SetDeadline(time.Time{})
	if err := WriteFrame(conn, MsgHello, AppendHello(nil, hello)); err != nil {
		return Welcome{}, fmt.Errorf("send hello: %w", err)
	}
	msgType, payload, err := ReadFrame(conn)
	if err != nil {
		return Welcome{}, fmt.Errorf("read welcome: %w", err)
	}
	switch msgType {
	case MsgWelcome:
		return DecodeWelcome(payload)
	case MsgReject:
		r, err := DecodeReject(payload)
		if err != nil {
			return Welcome{}, fmt.Errorf("malformed reject: %w", err)
		}
		return Welcome{}, rejectError{r}
	default:
		return Welcome{}, fmt.Errorf("unexpected handshake reply type %#x", msgType)
	}
}

// workerSession is one live connection, worker side.
type workerSession struct {
	w       *Worker
	conn    net.Conn
	welcome Welcome

	writeMu sync.Mutex // heartbeat/metrics ticker races command results
}

func (s *workerSession) write(msgType uint8, payload []byte) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.conn.SetWriteDeadline(time.Now().Add(s.w.cfg.DialTimeout))
	return WriteFrame(s.conn, msgType, payload)
}

// serve runs the session: a ticker goroutine ships heartbeats and
// metrics while this goroutine reads and executes commands. Exits: ctx
// cancelled → Goodbye, nil; OpShutdown → ErrShutdown; connection error →
// the error (Run reconnects).
func (s *workerSession) serve(ctx context.Context) error {
	tickerDone := make(chan struct{})
	var tickerWG sync.WaitGroup
	tickerWG.Add(1)
	go func() {
		defer tickerWG.Done()
		s.beatLoop(tickerDone)
	}()
	defer func() {
		close(tickerDone)
		tickerWG.Wait()
		s.conn.Close()
	}()

	// Watch ctx on the side: cancelling must unblock the blocking read.
	readCtxDone := make(chan struct{})
	var watchWG sync.WaitGroup
	watchWG.Add(1)
	go func() {
		defer watchWG.Done()
		select {
		case <-ctx.Done():
			s.write(MsgGoodbye, AppendGoodbye(nil, Goodbye{Reason: "context cancelled"}))
			s.conn.Close()
		case <-readCtxDone:
		}
	}()
	defer func() {
		close(readCtxDone)
		watchWG.Wait()
	}()

	for {
		msgType, payload, err := ReadFrame(s.conn)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("connection lost: %w", err)
		}
		if msgType != MsgCommand {
			continue // tolerate unknown coordinator→worker types
		}
		cmd, err := DecodeCommand(payload)
		if err != nil {
			continue
		}
		res, shutdown := s.execute(cmd)
		if err := s.write(MsgResult, AppendResult(nil, res)); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return fmt.Errorf("send result: %w", err)
		}
		if shutdown {
			return ErrShutdown
		}
	}
}

// beatLoop ships heartbeats every HeartbeatEvery and a metrics snapshot
// every MetricsEvery, both on the cadence the Welcome contracted. The
// first beat and snapshot go out immediately so the coordinator sees a
// live, observable worker right after the handshake.
func (s *workerSession) beatLoop(done chan struct{}) {
	var seq uint64
	beat := func() {
		seq++
		hb := Heartbeat{Seq: seq, InFlight: uint32(s.w.cfg.Engine.InFlight())}
		s.write(MsgHeartbeat, AppendHeartbeat(nil, hb))
	}
	ship := func() {
		s.write(MsgMetrics, AppendSnapshot(nil, s.w.cfg.Engine.Snapshot()))
	}
	beat()
	ship()
	ticker := time.NewTicker(s.welcome.HeartbeatEvery)
	defer ticker.Stop()
	lastShip := time.Now()
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
			beat()
			if time.Since(lastShip) >= s.welcome.MetricsEvery {
				ship()
				lastShip = time.Now()
			}
		}
	}
}

// execute runs one command against the local engine and builds its
// Result. The second return is true when the command was OpShutdown.
func (s *workerSession) execute(cmd Command) (Result, bool) {
	cfg := s.w.cfg
	res := Result{ReqID: cmd.ReqID, Status: StatusOK}
	topology := cmd.Topology
	if topology == "" {
		topology = cfg.Topology
	}
	fail := func(err error) Result {
		res.Status = StatusError
		res.Detail = err.Error()
		return res
	}
	switch cmd.Op {
	case OpPing:
		return res, false
	case OpSnapshot:
		res.Snap = cfg.Engine.Snapshot()
		return res, false
	case OpSetRatios:
		g := cfg.Groupings[cmd.Component]
		if g == nil {
			return fail(fmt.Errorf("no dynamic grouping for component %q", cmd.Component)), false
		}
		if err := g.SetRatios(cmd.Ratios); err != nil {
			return fail(err), false
		}
		return res, false
	case OpScaleUp:
		if err := cfg.Engine.ScaleUp(topology, cmd.Component, int(cmd.N)); err != nil {
			return fail(err), false
		}
		return res, false
	case OpScaleDown:
		if err := cfg.Engine.ScaleDown(topology, cmd.Component, int(cmd.N), cmd.Timeout); err != nil {
			return fail(err), false
		}
		return res, false
	case OpInjectFault:
		if err := cfg.Engine.InjectFault(cmd.Worker, cmd.Fault); err != nil {
			return fail(err), false
		}
		return res, false
	case OpClearFault:
		cfg.Engine.ClearFault(cmd.Worker)
		return res, false
	case OpPauseSpouts:
		cfg.Engine.PauseSpouts()
		return res, false
	case OpResumeSpouts:
		cfg.Engine.ResumeSpouts()
		return res, false
	case OpDrain:
		res.Drained = cfg.Engine.Drain(cmd.Timeout)
		return res, false
	case OpCheckInvariants:
		drained, violations := chaos.Quiesce(cfg.Engine, cfg.Spouts, cmd.Timeout, cmd.Resume)
		res.Drained = drained
		for _, v := range violations {
			res.Violations = append(res.Violations, v.String())
		}
		return res, false
	case OpShutdown:
		return res, true
	default:
		res.Status = StatusUnsupported
		res.Detail = fmt.Sprintf("unknown op %#x", cmd.Op)
		return res, false
	}
}
