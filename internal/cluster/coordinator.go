package cluster

import (
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"predstream/internal/dsps"
)

// commandTimeout bounds one command round trip; commands carrying their
// own drain timeout get that on top.
const commandTimeout = 5 * time.Second

// CoordinatorConfig parameterizes the fleet control plane. Zero fields
// take the noted defaults.
type CoordinatorConfig struct {
	// HeartbeatEvery is the beat cadence the Welcome contracts workers
	// to; default 500ms.
	HeartbeatEvery time.Duration
	// DeadAfter is the heartbeat silence after which a worker is declared
	// dead and its connection closed; default 4 × HeartbeatEvery.
	DeadAfter time.Duration
	// MetricsEvery is the snapshot-shipping cadence contracted to
	// workers; default 1s.
	MetricsEvery time.Duration
	// MinVersion and MaxVersion override the advertised protocol range
	// (tests use this to force negotiation failures); defaults are the
	// package constants.
	MinVersion, MaxVersion uint8
	// Events receives structured membership events (joins, leaves,
	// rejects, heartbeat expiries); nil disables emission.
	Events dsps.EventSink
}

func (c CoordinatorConfig) withDefaults() CoordinatorConfig {
	if c.HeartbeatEvery <= 0 {
		c.HeartbeatEvery = 500 * time.Millisecond
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 4 * c.HeartbeatEvery
	}
	if c.MetricsEvery <= 0 {
		c.MetricsEvery = time.Second
	}
	if c.MinVersion == 0 {
		c.MinVersion = MinVersion
	}
	if c.MaxVersion == 0 {
		c.MaxVersion = MaxVersion
	}
	return c
}

// WorkerInfo is a point-in-time view of one live worker session.
type WorkerInfo struct {
	// Name is the worker's stable identity; ID the session id assigned at
	// join ("w<N>").
	Name, ID string
	// Generation counts this name's joins (1 = first join; a bump means
	// the worker died or disconnected and rejoined).
	Generation uint32
	// Addr is the remote address of the session's connection.
	Addr string
	// Version is the negotiated protocol version.
	Version uint8
	// Topology, QueueSize, Spouts, and Controlled echo the worker's Hello
	// inventory.
	Topology   string
	QueueSize  int
	Spouts     []string
	Controlled []string
	// JoinedAt and LastHeartbeat time the session's liveness;
	// HeartbeatSeq and InFlight echo its latest beat.
	JoinedAt      time.Time
	LastHeartbeat time.Time
	HeartbeatSeq  uint64
	InFlight      int
	// MetricsAt is when the worker last shipped a snapshot (zero before
	// the first ship).
	MetricsAt time.Time
}

// FleetStats is the coordinator's membership accounting. Its counters
// are the fleet-level invariants the process-chaos harness asserts:
// Joins == Leaves + Live, and generations per name increase by exactly
// one per rejoin.
type FleetStats struct {
	// Live is the number of currently connected workers.
	Live int
	// Joins, Leaves, and Rejects count accepted sessions, departed
	// sessions (any reason), and refused Hellos since start.
	Joins, Leaves, Rejects int
	// CleanLeaves counts departures announced by a Goodbye; Expiries
	// counts heartbeat-deadline declarations of death.
	CleanLeaves, Expiries int
}

// session is one live worker connection, coordinator side.
type session struct {
	coord *Coordinator
	conn  net.Conn
	hello Hello

	name       string
	id         string
	generation uint32
	version    uint8
	joinedAt   time.Time

	writeMu sync.Mutex // serializes frame writes (commands race the monitor)

	mu        sync.Mutex
	lastBeat  time.Time
	beatSeq   uint64
	inFlight  uint32
	snap      *dsps.Snapshot
	snapAt    time.Time
	pending   map[uint64]chan Result
	nextReq   uint64
	closed    bool
	leftClean bool
}

// Coordinator is the fleet control plane: it accepts worker joins over
// TCP, negotiates protocol versions, tracks liveness by heartbeat
// deadline, collects shipped metric snapshots into a merged fleet view,
// and issues commands (ratios, scale, faults, drains, invariant checks)
// to workers. Create with NewCoordinator, stop with Close.
type Coordinator struct {
	cfg    CoordinatorConfig
	ln     net.Listener
	events dsps.EventSink
	wg     sync.WaitGroup
	done   chan struct{}

	mu       sync.Mutex
	sessions map[string]*session // live, by name
	gens     map[string]uint32   // join count by name
	nextID   int
	stats    FleetStats
	closed   bool
}

// NewCoordinator starts a coordinator listening on addr (e.g. ":7070" or
// "127.0.0.1:0").
func NewCoordinator(addr string, cfg CoordinatorConfig) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.MaxVersion < cfg.MinVersion {
		return nil, fmt.Errorf("cluster: invalid version range %d-%d", cfg.MinVersion, cfg.MaxVersion)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	c := &Coordinator{
		cfg:      cfg,
		ln:       ln,
		events:   cfg.Events,
		done:     make(chan struct{}),
		sessions: map[string]*session{},
		gens:     map[string]uint32{},
	}
	c.wg.Add(2)
	go c.acceptLoop()
	go c.monitor()
	return c, nil
}

// Addr returns the coordinator's listen address.
func (c *Coordinator) Addr() net.Addr { return c.ln.Addr() }

// Close stops the listener, closes every worker session, and waits for
// all coordinator goroutines to exit.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	sessions := make([]*session, 0, len(c.sessions))
	for _, s := range c.sessions {
		sessions = append(sessions, s)
	}
	c.mu.Unlock()
	close(c.done)
	err := c.ln.Close()
	for _, s := range sessions {
		s.conn.Close()
	}
	c.wg.Wait()
	return err
}

// emit forwards one structured event to the configured sink, if any.
func (c *Coordinator) emit(level int, msg string, kv ...string) {
	if c.events != nil {
		c.events.Event(level, msg, kv...)
	}
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			select {
			case <-c.done:
			default:
			}
			return
		}
		c.wg.Add(1)
		go c.handshake(conn)
	}
}

// handshake reads one Hello, negotiates, and either promotes the
// connection to a session (continuing as its reader) or rejects it.
func (c *Coordinator) handshake(conn net.Conn) {
	defer c.wg.Done()
	conn.SetReadDeadline(time.Now().Add(commandTimeout))
	msgType, payload, err := ReadFrame(conn)
	if err != nil || msgType != MsgHello {
		conn.Close()
		return
	}
	hello, err := DecodeHello(payload)
	reject := func(code uint8, detail string) {
		c.mu.Lock()
		c.stats.Rejects++
		c.mu.Unlock()
		c.writeRaw(conn, MsgReject, AppendReject(nil, Reject{Code: code, Detail: detail}))
		conn.Close()
		c.emit(dsps.EventWarn, "worker join rejected",
			"code", strconv.Itoa(int(code)), "detail", detail, "addr", conn.RemoteAddr().String())
	}
	if err != nil {
		reject(RejectBadHello, err.Error())
		return
	}
	if hello.Name == "" {
		reject(RejectBadHello, "empty worker name")
		return
	}
	version, err := NegotiateVersion(c.cfg.MinVersion, c.cfg.MaxVersion, hello.MinVersion, hello.MaxVersion)
	if err != nil {
		reject(RejectVersion, err.Error())
		return
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		reject(RejectShuttingDown, "coordinator closing")
		return
	}
	if _, live := c.sessions[hello.Name]; live {
		c.mu.Unlock()
		reject(RejectDuplicate, fmt.Sprintf("worker %q already joined", hello.Name))
		return
	}
	c.gens[hello.Name]++
	c.nextID++
	s := &session{
		coord:      c,
		conn:       conn,
		hello:      hello,
		name:       hello.Name,
		id:         fmt.Sprintf("w%d", c.nextID),
		generation: c.gens[hello.Name],
		version:    version,
		joinedAt:   time.Now(),
		lastBeat:   time.Now(),
		pending:    map[uint64]chan Result{},
	}
	c.sessions[hello.Name] = s
	c.stats.Joins++
	c.mu.Unlock()

	welcome := Welcome{
		Version:        version,
		WorkerID:       s.id,
		Generation:     s.generation,
		HeartbeatEvery: c.cfg.HeartbeatEvery,
		DeadAfter:      c.cfg.DeadAfter,
		MetricsEvery:   c.cfg.MetricsEvery,
	}
	if err := s.write(MsgWelcome, AppendWelcome(nil, welcome)); err != nil {
		c.removeSession(s, "welcome write failed")
		return
	}
	c.emit(dsps.EventInfo, "worker joined",
		"worker", s.name, "id", s.id,
		"generation", strconv.Itoa(int(s.generation)),
		"version", strconv.Itoa(int(version)),
		"topology", hello.Topology,
		"addr", conn.RemoteAddr().String())
	s.serve()
}

// writeRaw writes a frame outside any session (handshake rejects).
func (c *Coordinator) writeRaw(conn net.Conn, msgType uint8, payload []byte) {
	conn.SetWriteDeadline(time.Now().Add(commandTimeout))
	WriteFrame(conn, msgType, payload)
}

// serve is the session's reader loop; it runs on the handshake goroutine
// until the connection dies or the worker says Goodbye.
func (s *session) serve() {
	conn := s.conn
	conn.SetReadDeadline(time.Time{})
	reason := "connection lost"
	for {
		msgType, payload, err := ReadFrame(conn)
		if err != nil {
			break
		}
		switch msgType {
		case MsgHeartbeat:
			if hb, err := DecodeHeartbeat(payload); err == nil {
				s.mu.Lock()
				s.lastBeat = time.Now()
				s.beatSeq = hb.Seq
				s.inFlight = hb.InFlight
				s.mu.Unlock()
			}
		case MsgMetrics:
			if snap, err := DecodeSnapshot(payload); err == nil {
				s.mu.Lock()
				s.snap = snap
				s.snapAt = time.Now()
				s.mu.Unlock()
			}
		case MsgResult:
			if res, err := DecodeResult(payload); err == nil {
				s.mu.Lock()
				ch := s.pending[res.ReqID]
				delete(s.pending, res.ReqID)
				s.mu.Unlock()
				if ch != nil {
					ch <- res
				}
			}
		case MsgGoodbye:
			g, _ := DecodeGoodbye(payload)
			reason = "goodbye"
			if g.Reason != "" {
				reason = "goodbye: " + g.Reason
			}
			s.mu.Lock()
			s.leftClean = true
			s.mu.Unlock()
			s.coord.removeSession(s, reason)
			return
		default:
			// Unknown worker→coordinator type: tolerate (a newer worker may
			// ship informational frames this build does not know).
		}
	}
	s.coord.removeSession(s, reason)
}

// write sends one frame on the session, serialized against concurrent
// command senders.
func (s *session) write(msgType uint8, payload []byte) error {
	s.writeMu.Lock()
	defer s.writeMu.Unlock()
	s.conn.SetWriteDeadline(time.Now().Add(commandTimeout))
	return WriteFrame(s.conn, msgType, payload)
}

// call performs one command round trip on the session.
func (s *session) call(cmd Command, timeout time.Duration) (Result, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return Result{}, fmt.Errorf("cluster: worker %s: session closed", s.name)
	}
	s.nextReq++
	cmd.ReqID = s.nextReq
	ch := make(chan Result, 1)
	s.pending[cmd.ReqID] = ch
	s.mu.Unlock()

	if err := s.write(MsgCommand, AppendCommand(nil, cmd)); err != nil {
		s.mu.Lock()
		delete(s.pending, cmd.ReqID)
		s.mu.Unlock()
		return Result{}, fmt.Errorf("cluster: worker %s: send command: %w", s.name, err)
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-ch:
		return res, nil
	case <-timer.C:
		s.mu.Lock()
		delete(s.pending, cmd.ReqID)
		s.mu.Unlock()
		return Result{}, fmt.Errorf("cluster: worker %s: command %#x timed out after %v", s.name, cmd.Op, timeout)
	}
}

// removeSession drops a session from the live set (idempotent), fails its
// pending commands, and emits the leave.
func (c *Coordinator) removeSession(s *session, reason string) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	pending := s.pending
	s.pending = map[uint64]chan Result{}
	clean := s.leftClean
	s.mu.Unlock()
	s.conn.Close()
	for _, ch := range pending {
		ch <- Result{Status: StatusError, Detail: "session closed: " + reason}
	}

	c.mu.Lock()
	if c.sessions[s.name] == s {
		delete(c.sessions, s.name)
	}
	c.stats.Leaves++
	if clean {
		c.stats.CleanLeaves++
	}
	if reason == "heartbeat timeout" {
		c.stats.Expiries++
	}
	c.mu.Unlock()
	c.emit(dsps.EventWarn, "worker left",
		"worker", s.name, "id", s.id,
		"generation", strconv.Itoa(int(s.generation)),
		"reason", reason)
}

// monitor enforces the heartbeat deadline: a session silent longer than
// DeadAfter is declared dead and its connection closed, which unblocks
// its reader and triggers the leave path. A SIGSTOPped worker process is
// exactly this case — the TCP connection stays open but no beats arrive.
func (c *Coordinator) monitor() {
	defer c.wg.Done()
	period := c.cfg.HeartbeatEvery / 2
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-ticker.C:
		}
		now := time.Now()
		c.mu.Lock()
		var expired []*session
		for _, s := range c.sessions {
			s.mu.Lock()
			silent := now.Sub(s.lastBeat)
			s.mu.Unlock()
			if silent > c.cfg.DeadAfter {
				expired = append(expired, s)
			}
		}
		c.mu.Unlock()
		for _, s := range expired {
			c.emit(dsps.EventWarn, "worker heartbeat expired",
				"worker", s.name, "dead_after", c.cfg.DeadAfter.String())
			c.removeSession(s, "heartbeat timeout")
		}
	}
}

// liveSessions returns the live sessions sorted by worker name.
func (c *Coordinator) liveSessions() []*session {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*session, 0, len(c.sessions))
	for _, s := range c.sessions {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// session returns the live session of a worker name.
func (c *Coordinator) session(name string) (*session, error) {
	c.mu.Lock()
	s := c.sessions[name]
	c.mu.Unlock()
	if s == nil {
		return nil, fmt.Errorf("cluster: no live worker %q", name)
	}
	return s, nil
}

// Workers returns a point-in-time view of every live worker, sorted by
// name.
func (c *Coordinator) Workers() []WorkerInfo {
	sessions := c.liveSessions()
	out := make([]WorkerInfo, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, s.info())
	}
	return out
}

// Worker returns one live worker's view, or false.
func (c *Coordinator) Worker(name string) (WorkerInfo, bool) {
	s, err := c.session(name)
	if err != nil {
		return WorkerInfo{}, false
	}
	return s.info(), true
}

func (s *session) info() WorkerInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	return WorkerInfo{
		Name:          s.name,
		ID:            s.id,
		Generation:    s.generation,
		Addr:          s.conn.RemoteAddr().String(),
		Version:       s.version,
		Topology:      s.hello.Topology,
		QueueSize:     int(s.hello.QueueSize),
		Spouts:        append([]string(nil), s.hello.Spouts...),
		Controlled:    append([]string(nil), s.hello.Controlled...),
		JoinedAt:      s.joinedAt,
		LastHeartbeat: s.lastBeat,
		HeartbeatSeq:  s.beatSeq,
		InFlight:      int(s.inFlight),
		MetricsAt:     s.snapAt,
	}
}

// Stats returns the coordinator's membership accounting.
func (c *Coordinator) Stats() FleetStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Live = len(c.sessions)
	return st
}

// Generation returns how many times a worker name has joined (0 = never).
func (c *Coordinator) Generation(name string) uint32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gens[name]
}

// WaitForWorkers blocks until at least n workers are live or the timeout
// elapses.
func (c *Coordinator) WaitForWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		live := len(c.sessions)
		c.mu.Unlock()
		if live >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: %d/%d workers joined within %v", live, n, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Snapshot returns the merged fleet snapshot: every live worker's last
// shipped engine snapshot, with topology, worker, and node ids prefixed
// by "<worker name>/" so same-named topologies on different workers stay
// distinct series. It satisfies obs.Snapshotter, so remote metrics flow
// through the existing /metrics families unchanged. Workers that have not
// shipped metrics yet contribute nothing; task ids are only unique per
// worker in the merged view.
func (c *Coordinator) Snapshot() *dsps.Snapshot {
	merged := &dsps.Snapshot{At: time.Now()}
	for _, s := range c.liveSessions() {
		s.mu.Lock()
		snap := s.snap
		name := s.name
		s.mu.Unlock()
		if snap == nil {
			continue
		}
		prefix := name + "/"
		for _, ts := range snap.Tasks {
			ts.Topology = prefix + ts.Topology
			ts.WorkerID = prefix + ts.WorkerID
			ts.NodeID = prefix + ts.NodeID
			merged.Tasks = append(merged.Tasks, ts)
		}
		for _, ws := range snap.Workers {
			ws.WorkerID = prefix + ws.WorkerID
			ws.NodeID = prefix + ws.NodeID
			ws.Tasks = nil // rebuilt below from the prefixed tasks
			merged.Workers = append(merged.Workers, ws)
		}
		for _, ns := range snap.Nodes {
			ns.NodeID = prefix + ns.NodeID
			for i, w := range ns.Workers {
				ns.Workers[i] = prefix + w
			}
			merged.Nodes = append(merged.Nodes, ns)
		}
		for _, as := range snap.Acker {
			as.Topology = prefix + as.Topology
			merged.Acker = append(merged.Acker, as)
		}
		for _, sc := range snap.Scale {
			sc.Topology = prefix + sc.Topology
			merged.Scale = append(merged.Scale, sc)
		}
	}
	merged.Components = dsps.BuildComponentStats(merged.Tasks)
	byWorker := make(map[string]int, len(merged.Workers))
	for i := range merged.Workers {
		byWorker[merged.Workers[i].WorkerID] = i
	}
	for _, ts := range merged.Tasks {
		if i, ok := byWorker[ts.WorkerID]; ok {
			merged.Workers[i].Tasks = append(merged.Workers[i].Tasks, ts)
		}
	}
	return merged
}

// Ping round-trips an OpPing with a worker.
func (c *Coordinator) Ping(name string) error {
	s, err := c.session(name)
	if err != nil {
		return err
	}
	res, err := s.call(Command{Op: OpPing}, commandTimeout)
	if err != nil {
		return err
	}
	if res.Status != StatusOK {
		return fmt.Errorf("cluster: ping %s: status %d: %s", name, res.Status, res.Detail)
	}
	return nil
}

// CheckInvariants asks one worker to clear faults, pause spouts, drain
// (bounded by drainTimeout), and run the engine invariants — tuple
// conservation and acker quiescence — inside its own process, resuming
// emission afterwards when resume is set. It returns the drained flag and
// any violations the worker reported.
func (c *Coordinator) CheckInvariants(name string, drainTimeout time.Duration, resume bool) (drained bool, violations []string, err error) {
	s, err := c.session(name)
	if err != nil {
		return false, nil, err
	}
	res, err := s.call(Command{Op: OpCheckInvariants, Timeout: drainTimeout, Resume: resume},
		commandTimeout+drainTimeout)
	if err != nil {
		return false, nil, err
	}
	if res.Status != StatusOK {
		return false, nil, fmt.Errorf("cluster: check %s: status %d: %s", name, res.Status, res.Detail)
	}
	return res.Drained, res.Violations, nil
}

// DrainAll pauses nothing but asks every live worker to drain, bounded by
// timeout each, and reports whether all drained.
func (c *Coordinator) DrainAll(timeout time.Duration) bool {
	all := true
	for _, s := range c.liveSessions() {
		res, err := s.call(Command{Op: OpDrain, Timeout: timeout}, commandTimeout+timeout)
		if err != nil || res.Status != StatusOK || !res.Drained {
			all = false
		}
	}
	return all
}

// PauseAll / ResumeAll toggle spout emission on every live worker.
func (c *Coordinator) PauseAll() {
	for _, s := range c.liveSessions() {
		s.call(Command{Op: OpPauseSpouts}, commandTimeout)
	}
}

// ResumeAll re-enables spout emission on every live worker.
func (c *Coordinator) ResumeAll() {
	for _, s := range c.liveSessions() {
		s.call(Command{Op: OpResumeSpouts}, commandTimeout)
	}
}

// ShutdownWorkers asks every live worker process to exit gracefully.
func (c *Coordinator) ShutdownWorkers() {
	for _, s := range c.liveSessions() {
		s.call(Command{Op: OpShutdown}, commandTimeout)
	}
}
