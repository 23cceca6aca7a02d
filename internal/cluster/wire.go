// Package cluster turns the in-process stream engine into a real
// multi-process deployment: a coordinator process and N worker processes
// speaking a versioned, length-prefixed binary wire protocol over TCP
// (stdlib net + encoding/binary only — the same framing discipline as
// internal/serve's raw-TCP prediction protocol).
//
// Each worker process hosts a full engine instance (a *dsps.Cluster
// running one topology); the coordinator is the fleet control plane:
// worker join/leave with handshake version negotiation, heartbeats with
// deadline-based liveness, remote metric shipping into the existing
// Snapshot/internal/obs pipeline, and the predictive control loop
// actuating dynamic-grouping ratios and scale actions across the wire.
// The in-process engine remains the "local transport": *dsps.Cluster and
// this package's RemoteEngine satisfy the same core.Engine interface, so
// every existing test, chaos schedule, and benchmark still runs
// single-binary and byte-identical.
//
// The full frame grammar, version-negotiation rules, and a worked
// hexdump example live in docs/WIRE_PROTOCOL.md; every message type and
// command opcode defined here appears there (pinned by TestWireSpecCovers
// in this package). Operations guidance — starting a coordinator and
// workers, heartbeat knobs, failure modes — lives in docs/CLUSTER.md.
package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"predstream/internal/dsps"
)

// Magic is the protocol identifier a Hello frame leads with: "PDSP",
// big-endian. A connection whose first frame does not carry it is not a
// predstream worker and is rejected before any state is allocated.
const Magic uint32 = 0x50445350

// Version bounds of the wire protocol this build speaks. The handshake
// negotiates the highest version inside both sides' [min, max] ranges
// (see NegotiateVersion); there is exactly one version today, but every
// frame-level decision is already keyed by the negotiated value so a v2
// can coexist with v1 workers.
const (
	// MinVersion is the oldest protocol version this build accepts.
	MinVersion uint8 = 1
	// MaxVersion is the newest protocol version this build speaks.
	MaxVersion uint8 = 1
)

// MaxFrameBody bounds one frame body (type byte + payload). Frames beyond
// it are rejected before any allocation proportional to the claimed size.
// 1 MiB comfortably fits the metrics snapshot of a large topology.
const MaxFrameBody = 1 << 20

// Message types. Direction is fixed per type: workers speak Hello,
// Heartbeat, Metrics, Result, and Goodbye; coordinators speak Welcome,
// Reject, and Command.
const (
	// MsgHello opens a connection: magic, version range, worker name, and
	// the engine inventory (topology, queue size, spout and controlled
	// components).
	MsgHello uint8 = 0x01
	// MsgWelcome accepts a Hello: negotiated version, assigned worker id,
	// join generation, and the heartbeat/metrics cadence contract.
	MsgWelcome uint8 = 0x02
	// MsgReject refuses a Hello with a code and detail; the coordinator
	// closes the connection after sending it.
	MsgReject uint8 = 0x03
	// MsgHeartbeat is the worker's liveness beacon: a sequence number and
	// its current in-flight root count.
	MsgHeartbeat uint8 = 0x04
	// MsgMetrics ships one full engine snapshot (see docs/WIRE_PROTOCOL.md
	// § Snapshot encoding).
	MsgMetrics uint8 = 0x05
	// MsgCommand carries one coordinator→worker operation (see the Op
	// constants); every command is answered by exactly one MsgResult with
	// the same request id.
	MsgCommand uint8 = 0x06
	// MsgResult answers a MsgCommand: status, detail, and an op-specific
	// payload (drained flag, invariant violations, snapshot).
	MsgResult uint8 = 0x07
	// MsgGoodbye announces a graceful worker departure; the coordinator
	// records the leave as clean rather than as a liveness failure.
	MsgGoodbye uint8 = 0x08
)

// Reject codes.
const (
	// RejectVersion reports disjoint version ranges (no common protocol
	// version).
	RejectVersion uint8 = 1
	// RejectDuplicate reports that a live worker already holds the name.
	RejectDuplicate uint8 = 2
	// RejectShuttingDown reports the coordinator is closing.
	RejectShuttingDown uint8 = 3
	// RejectBadHello reports a malformed Hello (wrong magic, empty name).
	RejectBadHello uint8 = 4
)

// Command opcodes. Every command frame carries the same field layout
// (see Command); ops ignore the fields they do not use.
const (
	// OpPing does nothing and answers OK — the liveness RPC.
	OpPing uint8 = 0x01
	// OpSnapshot answers with the worker's current engine snapshot.
	OpSnapshot uint8 = 0x02
	// OpSetRatios installs a dynamic-grouping ratio vector on a
	// controlled component.
	OpSetRatios uint8 = 0x03
	// OpScaleUp adds N executors to a component.
	OpScaleUp uint8 = 0x04
	// OpScaleDown drains and removes N executors of a component, bounded
	// by Timeout.
	OpScaleDown uint8 = 0x05
	// OpInjectFault applies a simulated fault to an engine-level worker.
	OpInjectFault uint8 = 0x06
	// OpClearFault removes any fault from an engine-level worker.
	OpClearFault uint8 = 0x07
	// 0x08–0x0A are retired (pause, resume, drain); a worker answers
	// them StatusUnsupported like any unknown op.
	// OpCheckInvariants clears faults, pauses spouts, drains, and runs
	// the engine invariants (tuple conservation, acker quiescence, empty
	// queues); the result carries the drained flag and any violations.
	// Resume re-enables emission afterwards.
	OpCheckInvariants uint8 = 0x0B
	// OpShutdown asks the worker process to exit gracefully.
	OpShutdown uint8 = 0x0C
)

// Result statuses.
const (
	// StatusOK reports the command succeeded.
	StatusOK uint8 = 0
	// StatusError reports the command failed; Detail explains.
	StatusError uint8 = 1
	// StatusUnsupported reports an opcode the worker does not implement.
	StatusUnsupported uint8 = 2
)

// ErrFrameTooLarge reports a frame body beyond MaxFrameBody.
var ErrFrameTooLarge = errors.New("cluster: wire frame too large")

// NegotiateVersion picks the protocol version for a connection: the
// highest version both ranges contain, or an error when the ranges are
// disjoint. The coordinator calls it with its own compiled-in range and
// the range the Hello advertised.
func NegotiateVersion(localMin, localMax, remoteMin, remoteMax uint8) (uint8, error) {
	v := localMax
	if remoteMax < v {
		v = remoteMax
	}
	if v < localMin || v < remoteMin {
		return 0, fmt.Errorf("cluster: no common protocol version (local %d-%d, remote %d-%d)",
			localMin, localMax, remoteMin, remoteMax)
	}
	return v, nil
}

// WriteFrame writes one frame — length prefix, type byte, payload — to w.
func WriteFrame(w io.Writer, msgType uint8, payload []byte) error {
	if len(payload)+1 > MaxFrameBody {
		return ErrFrameTooLarge
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[4] = msgType
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame from r, returning its type and payload. It
// returns io.EOF on a clean end-of-stream before any prefix byte.
func ReadFrame(r io.Reader) (msgType uint8, payload []byte, err error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return 0, nil, fmt.Errorf("cluster: truncated frame prefix: %w", err)
		}
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n == 0 {
		return 0, nil, fmt.Errorf("cluster: empty frame body")
	}
	if n > MaxFrameBody {
		return 0, nil, ErrFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("cluster: truncated frame body: %w", err)
	}
	return body[0], body[1:], nil
}

// Hello is the first frame of every connection, worker → coordinator.
type Hello struct {
	// MinVersion and MaxVersion advertise the worker's protocol range.
	MinVersion, MaxVersion uint8
	// Name is the worker's stable identity across reconnects; the
	// coordinator tracks generations per name and rejects a join while
	// another live session holds it.
	Name string
	// Topology names the topology the worker's engine runs.
	Topology string
	// QueueSize is the engine's per-executor input-queue bound (shipped
	// so remote scale planners can compute occupancy).
	QueueSize uint32
	// Spouts lists the components whose emissions are anchored roots —
	// the inputs of the remote invariant self-check.
	Spouts []string
	// Controlled lists the components with dynamic-grouping handles the
	// coordinator may steer via OpSetRatios.
	Controlled []string
}

// Welcome accepts a Hello, coordinator → worker.
type Welcome struct {
	// Version is the negotiated protocol version for this connection.
	Version uint8
	// WorkerID is the coordinator-assigned session id (informational;
	// the worker's identity remains its name).
	WorkerID string
	// Generation counts this name's joins, starting at 1; a crash-and-
	// rejoin is visible as a generation bump.
	Generation uint32
	// HeartbeatEvery is how often the worker must beat; DeadAfter is the
	// silence after which the coordinator declares it dead and closes the
	// connection; MetricsEvery is the snapshot-shipping cadence.
	HeartbeatEvery, DeadAfter, MetricsEvery time.Duration
}

// Reject refuses a Hello, coordinator → worker.
type Reject struct {
	// Code is one of the Reject* constants.
	Code uint8
	// Detail is a human-readable explanation.
	Detail string
}

// Heartbeat is the worker's periodic liveness beacon.
type Heartbeat struct {
	// Seq increments per beat within a connection.
	Seq uint64
	// InFlight is the engine's tracked, incomplete root count.
	InFlight uint32
}

// Command is one coordinator → worker operation. Every op shares this
// field layout on the wire; fields an op does not use are zero and
// ignored (the uniform layout keeps the frame grammar small and the
// fuzz surface simple).
type Command struct {
	// ReqID matches the command to its Result; unique per connection.
	ReqID uint64
	// Op is one of the Op* constants.
	Op uint8
	// Topology and Component target scale and ratio ops.
	Topology, Component string
	// Worker targets fault ops (an engine-level simulated worker id).
	Worker string
	// N is the executor delta of scale ops.
	N int
	// Timeout bounds drains (scale-down, check-invariants).
	Timeout time.Duration
	// Resume re-enables spout emission after OpCheckInvariants.
	Resume bool
	// Fault carries OpInjectFault's misbehaviour.
	Fault dsps.Fault
	// Ratios carries OpSetRatios' split vector.
	Ratios []float64
}

// Result answers one Command, worker → coordinator.
type Result struct {
	// ReqID echoes the command's request id.
	ReqID uint64
	// Status is one of the Status* constants.
	Status uint8
	// Detail explains a non-OK status.
	Detail string
	// Drained reports OpCheckInvariants' drain completion.
	Drained bool
	// Violations holds rendered invariant breaches (OpCheckInvariants).
	Violations []string
	// Snap is the engine snapshot (OpSnapshot), nil otherwise.
	Snap *dsps.Snapshot
}

// Goodbye announces a graceful departure, worker → coordinator.
type Goodbye struct {
	// Reason is a human-readable departure cause.
	Reason string
}

// Wire-format bounds for variable-length payload fields; decoders reject
// counts beyond them before allocating.
const (
	maxWireString   = 1 << 12 // bytes per string
	maxWireStrings  = 1 << 10 // elements per string slice
	maxWireRatios   = 1 << 12 // elements per ratio vector
	msDurationLimit = math.MaxUint32
)

// ---- encode helpers (append-style, big-endian, mirroring serve/wire.go)

func appendU8(dst []byte, v uint8) []byte   { return append(dst, v) }
func appendU16(dst []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(dst, v) }
func appendU32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }
func appendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }
func appendI64(dst []byte, v int64) []byte  { return appendU64(dst, uint64(v)) }
func appendF64(dst []byte, v float64) []byte {
	return appendU64(dst, math.Float64bits(v))
}
func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}
func appendString(dst []byte, s string) []byte {
	if len(s) > maxWireString {
		s = s[:maxWireString]
	}
	dst = appendU16(dst, uint16(len(s)))
	return append(dst, s...)
}
func appendStrings(dst []byte, ss []string) []byte {
	dst = appendU32(dst, uint32(len(ss)))
	for _, s := range ss {
		dst = appendString(dst, s)
	}
	return dst
}
func appendMillis(dst []byte, d time.Duration) []byte {
	ms := d.Milliseconds()
	if ms < 0 {
		ms = 0
	}
	if ms > msDurationLimit {
		ms = msDurationLimit
	}
	return appendU32(dst, uint32(ms))
}

// dec is a consuming big-endian decoder over one frame payload. The first
// malformed read latches err; subsequent reads return zero values, so
// message decoders can read field-by-field and check the error once.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("cluster: "+format, args...)
	}
}
func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if len(d.b) < n {
		d.fail("truncated payload: want %d bytes, have %d", n, len(d.b))
		return nil
	}
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}
func (d *dec) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}
func (d *dec) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}
func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}
func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}
func (d *dec) i64() int64    { return int64(d.u64()) }
func (d *dec) f64() float64  { return math.Float64frombits(d.u64()) }
func (d *dec) boolean() bool { return d.u8() != 0 }
func (d *dec) millis() time.Duration {
	return time.Duration(d.u32()) * time.Millisecond
}
func (d *dec) str() string {
	n := int(d.u16())
	if n > maxWireString {
		d.fail("string of %d bytes exceeds limit %d", n, maxWireString)
		return ""
	}
	b := d.take(n)
	if b == nil {
		return ""
	}
	return string(b)
}
func (d *dec) strings() []string {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if n > maxWireStrings {
		d.fail("string slice of %d elements exceeds limit %d", n, maxWireStrings)
		return nil
	}
	// Each element costs at least its 2-byte length prefix.
	if n*2 > len(d.b) {
		d.fail("string slice of %d elements cannot fit in %d bytes", n, len(d.b))
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}
func (d *dec) f64s(limit int) []float64 {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if n > limit {
		d.fail("float slice of %d elements exceeds limit %d", n, limit)
		return nil
	}
	if n*8 > len(d.b) {
		d.fail("float slice of %d elements cannot fit in %d bytes", n, len(d.b))
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}
func (d *dec) i64s(limit int) []int64 {
	n := int(d.u32())
	if d.err != nil {
		return nil
	}
	if n > limit {
		d.fail("int slice of %d elements exceeds limit %d", n, limit)
		return nil
	}
	if n*8 > len(d.b) {
		d.fail("int slice of %d elements cannot fit in %d bytes", n, len(d.b))
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = d.i64()
	}
	return out
}

// done asserts the payload was fully consumed — trailing bytes mean a
// framing bug or a newer-version field this build cannot interpret.
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("cluster: %d trailing bytes after payload", len(d.b))
	}
	return nil
}

// ---- message codecs

// AppendHello appends h's wire payload to dst.
func AppendHello(dst []byte, h Hello) []byte {
	dst = appendU32(dst, Magic)
	dst = appendU8(dst, h.MinVersion)
	dst = appendU8(dst, h.MaxVersion)
	dst = appendU16(dst, 0) // flags, reserved
	dst = appendString(dst, h.Name)
	dst = appendString(dst, h.Topology)
	dst = appendU32(dst, h.QueueSize)
	dst = appendStrings(dst, h.Spouts)
	dst = appendStrings(dst, h.Controlled)
	return dst
}

// DecodeHello parses a MsgHello payload.
func DecodeHello(payload []byte) (Hello, error) {
	d := &dec{b: payload}
	if m := d.u32(); d.err == nil && m != Magic {
		return Hello{}, fmt.Errorf("cluster: bad magic %#x, want %#x", m, Magic)
	}
	var h Hello
	h.MinVersion = d.u8()
	h.MaxVersion = d.u8()
	if f := d.u16(); d.err == nil && f != 0 {
		return Hello{}, fmt.Errorf("cluster: nonzero hello flags %#x", f)
	}
	h.Name = d.str()
	h.Topology = d.str()
	h.QueueSize = d.u32()
	h.Spouts = d.strings()
	h.Controlled = d.strings()
	if err := d.done(); err != nil {
		return Hello{}, err
	}
	if h.MinVersion == 0 || h.MaxVersion < h.MinVersion {
		return Hello{}, fmt.Errorf("cluster: invalid version range %d-%d", h.MinVersion, h.MaxVersion)
	}
	return h, nil
}

// AppendWelcome appends w's wire payload to dst.
func AppendWelcome(dst []byte, w Welcome) []byte {
	dst = appendU8(dst, w.Version)
	dst = appendString(dst, w.WorkerID)
	dst = appendU32(dst, w.Generation)
	dst = appendMillis(dst, w.HeartbeatEvery)
	dst = appendMillis(dst, w.DeadAfter)
	dst = appendMillis(dst, w.MetricsEvery)
	return dst
}

// DecodeWelcome parses a MsgWelcome payload.
func DecodeWelcome(payload []byte) (Welcome, error) {
	d := &dec{b: payload}
	var w Welcome
	w.Version = d.u8()
	w.WorkerID = d.str()
	w.Generation = d.u32()
	w.HeartbeatEvery = d.millis()
	w.DeadAfter = d.millis()
	w.MetricsEvery = d.millis()
	if err := d.done(); err != nil {
		return Welcome{}, err
	}
	return w, nil
}

// AppendReject appends r's wire payload to dst.
func AppendReject(dst []byte, r Reject) []byte {
	dst = appendU8(dst, r.Code)
	dst = appendString(dst, r.Detail)
	return dst
}

// DecodeReject parses a MsgReject payload.
func DecodeReject(payload []byte) (Reject, error) {
	d := &dec{b: payload}
	var r Reject
	r.Code = d.u8()
	r.Detail = d.str()
	if err := d.done(); err != nil {
		return Reject{}, err
	}
	return r, nil
}

// AppendHeartbeat appends h's wire payload to dst.
func AppendHeartbeat(dst []byte, h Heartbeat) []byte {
	dst = appendU64(dst, h.Seq)
	dst = appendU32(dst, h.InFlight)
	return dst
}

// DecodeHeartbeat parses a MsgHeartbeat payload.
func DecodeHeartbeat(payload []byte) (Heartbeat, error) {
	d := &dec{b: payload}
	var h Heartbeat
	h.Seq = d.u64()
	h.InFlight = d.u32()
	if err := d.done(); err != nil {
		return Heartbeat{}, err
	}
	return h, nil
}

// AppendCommand appends c's wire payload to dst (the uniform layout every
// op shares; see docs/WIRE_PROTOCOL.md).
func AppendCommand(dst []byte, c Command) []byte {
	dst = appendU64(dst, c.ReqID)
	dst = appendU8(dst, c.Op)
	dst = appendString(dst, c.Topology)
	dst = appendString(dst, c.Component)
	dst = appendString(dst, c.Worker)
	n := c.N
	if n < 0 {
		n = 0
	}
	if n > math.MaxUint16 {
		n = math.MaxUint16
	}
	dst = appendU16(dst, uint16(n))
	dst = appendMillis(dst, c.Timeout)
	dst = appendBool(dst, c.Resume)
	dst = appendF64(dst, c.Fault.Slowdown)
	dst = appendF64(dst, c.Fault.DropProb)
	dst = appendF64(dst, c.Fault.FailProb)
	dst = appendBool(dst, c.Fault.Stall)
	dst = appendU32(dst, uint32(len(c.Ratios)))
	for _, r := range c.Ratios {
		dst = appendF64(dst, r)
	}
	return dst
}

// DecodeCommand parses a MsgCommand payload.
func DecodeCommand(payload []byte) (Command, error) {
	d := &dec{b: payload}
	var c Command
	c.ReqID = d.u64()
	c.Op = d.u8()
	c.Topology = d.str()
	c.Component = d.str()
	c.Worker = d.str()
	c.N = int(d.u16())
	c.Timeout = d.millis()
	c.Resume = d.boolean()
	c.Fault.Slowdown = d.f64()
	c.Fault.DropProb = d.f64()
	c.Fault.FailProb = d.f64()
	c.Fault.Stall = d.boolean()
	c.Ratios = d.f64s(maxWireRatios)
	if err := d.done(); err != nil {
		return Command{}, err
	}
	return c, nil
}

// AppendResult appends r's wire payload to dst.
func AppendResult(dst []byte, r Result) []byte {
	dst = appendU64(dst, r.ReqID)
	dst = appendU8(dst, r.Status)
	dst = appendString(dst, r.Detail)
	dst = appendBool(dst, r.Drained)
	dst = appendStrings(dst, r.Violations)
	if r.Snap == nil {
		return appendBool(dst, false)
	}
	dst = appendBool(dst, true)
	return AppendSnapshot(dst, r.Snap)
}

// DecodeResult parses a MsgResult payload.
func DecodeResult(payload []byte) (Result, error) {
	d := &dec{b: payload}
	var r Result
	r.ReqID = d.u64()
	r.Status = d.u8()
	r.Detail = d.str()
	r.Drained = d.boolean()
	r.Violations = d.strings()
	if d.boolean() {
		r.Snap = decodeSnapshot(d)
	}
	if err := d.done(); err != nil {
		return Result{}, err
	}
	return r, nil
}

// AppendGoodbye appends g's wire payload to dst.
func AppendGoodbye(dst []byte, g Goodbye) []byte {
	return appendString(dst, g.Reason)
}

// DecodeGoodbye parses a MsgGoodbye payload.
func DecodeGoodbye(payload []byte) (Goodbye, error) {
	d := &dec{b: payload}
	var g Goodbye
	g.Reason = d.str()
	if err := d.done(); err != nil {
		return Goodbye{}, err
	}
	return g, nil
}
