package cluster

import (
	"bytes"
	"encoding/binary"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"predstream/internal/dsps"
)

func TestNegotiateVersion(t *testing.T) {
	cases := []struct {
		lmin, lmax, rmin, rmax uint8
		want                   uint8
		wantErr                bool
	}{
		{1, 1, 1, 1, 1, false},
		{1, 3, 2, 5, 3, false}, // highest in both ranges
		{2, 5, 1, 3, 3, false},
		{1, 1, 2, 3, 0, true}, // disjoint: remote too new
		{4, 6, 1, 3, 0, true}, // disjoint: remote too old
	}
	for _, c := range cases {
		got, err := NegotiateVersion(c.lmin, c.lmax, c.rmin, c.rmax)
		if c.wantErr {
			if err == nil {
				t.Errorf("NegotiateVersion(%d-%d, %d-%d) = %d, want error", c.lmin, c.lmax, c.rmin, c.rmax, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("NegotiateVersion(%d-%d, %d-%d) = %d, %v; want %d", c.lmin, c.lmax, c.rmin, c.rmax, got, err, c.want)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	if err := WriteFrame(&buf, MsgHeartbeat, payload); err != nil {
		t.Fatal(err)
	}
	// Frame layout: u32 bodyLen | u8 msgType | payload.
	raw := buf.Bytes()
	if got := binary.BigEndian.Uint32(raw[:4]); got != uint32(1+len(payload)) {
		t.Fatalf("bodyLen = %d, want %d", got, 1+len(payload))
	}
	msgType, got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if msgType != MsgHeartbeat || !bytes.Equal(got, payload) {
		t.Fatalf("ReadFrame = (%#x, %x)", msgType, got)
	}
}

func TestFrameRejectsOversize(t *testing.T) {
	if err := WriteFrame(&bytes.Buffer{}, MsgMetrics, make([]byte, MaxFrameBody)); err != ErrFrameTooLarge {
		t.Fatalf("write oversize: %v", err)
	}
	var buf bytes.Buffer
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrameBody+1)
	buf.Write(hdr[:])
	if _, _, err := ReadFrame(&buf); err != ErrFrameTooLarge {
		t.Fatalf("read oversize: %v", err)
	}
	// Zero-length body: not even a type byte.
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0})
	if _, _, err := ReadFrame(&buf); err == nil {
		t.Fatal("empty body accepted")
	}
}

func TestFrameTruncated(t *testing.T) {
	var buf bytes.Buffer
	WriteFrame(&buf, MsgCommand, []byte("abcdef"))
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		if _, _, err := ReadFrame(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestHelloRoundTrip(t *testing.T) {
	h := Hello{
		MinVersion: 1, MaxVersion: 1,
		Name:       "worker-a",
		Topology:   "urlcount",
		QueueSize:  256,
		Spouts:     []string{"urls"},
		Controlled: []string{"count", "sink"},
	}
	got, err := DecodeHello(AppendHello(nil, h))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, h) {
		t.Fatalf("got %+v want %+v", got, h)
	}
}

func TestHelloRejectsBadMagic(t *testing.T) {
	raw := AppendHello(nil, Hello{MinVersion: 1, MaxVersion: 1, Name: "w"})
	raw[0] ^= 0xFF
	if _, err := DecodeHello(raw); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestHelloRejectsInvertedRange(t *testing.T) {
	if _, err := DecodeHello(AppendHello(nil, Hello{MinVersion: 3, MaxVersion: 1, Name: "w"})); err == nil {
		t.Fatal("inverted version range accepted")
	}
}

func TestWelcomeRoundTrip(t *testing.T) {
	w := Welcome{
		Version: 1, WorkerID: "w7", Generation: 3,
		HeartbeatEvery: 500 * time.Millisecond,
		DeadAfter:      2 * time.Second,
		MetricsEvery:   time.Second,
	}
	got, err := DecodeWelcome(AppendWelcome(nil, w))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, w) {
		t.Fatalf("got %+v want %+v", got, w)
	}
}

func TestRejectRoundTrip(t *testing.T) {
	r := Reject{Code: RejectDuplicate, Detail: `worker "a" already joined`}
	got, err := DecodeReject(AppendReject(nil, r))
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("got %+v want %+v", got, r)
	}
}

func TestHeartbeatRoundTrip(t *testing.T) {
	h := Heartbeat{Seq: 1 << 40, InFlight: 12345}
	got, err := DecodeHeartbeat(AppendHeartbeat(nil, h))
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("got %+v want %+v", got, h)
	}
}

func TestCommandRoundTrip(t *testing.T) {
	cases := []Command{
		{ReqID: 1, Op: OpPing},
		{ReqID: 2, Op: OpSetRatios, Component: "count", Ratios: []float64{0.25, 0.5, 0.25}},
		{ReqID: 3, Op: OpScaleUp, Topology: "urlcount", Component: "count", N: 2},
		{ReqID: 4, Op: OpScaleDown, Topology: "urlcount", Component: "count", N: 1, Timeout: 250 * time.Millisecond},
		{ReqID: 5, Op: OpInjectFault, Worker: "worker-2",
			Fault: dsps.Fault{Slowdown: 4.5, DropProb: 0.1, FailProb: 0.2, Stall: true}},
		{ReqID: 6, Op: OpCheckInvariants, Timeout: 3 * time.Second, Resume: true},
		{ReqID: 7, Op: OpShutdown},
	}
	for _, c := range cases {
		got, err := DecodeCommand(AppendCommand(nil, c))
		if err != nil {
			t.Fatalf("op %#x: %v", c.Op, err)
		}
		if !reflect.DeepEqual(got, c) {
			t.Fatalf("op %#x: got %+v want %+v", c.Op, got, c)
		}
	}
}

func TestResultRoundTrip(t *testing.T) {
	cases := []Result{
		{ReqID: 1, Status: StatusOK},
		{ReqID: 2, Status: StatusError, Detail: "no such component"},
		{ReqID: 3, Status: StatusOK, Drained: true,
			Violations: []string{"conservation: emitted 10 acked 9", "acker: 1 in flight"}},
	}
	for _, r := range cases {
		got, err := DecodeResult(AppendResult(nil, r))
		if err != nil {
			t.Fatalf("reqID %d: %v", r.ReqID, err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("got %+v want %+v", got, r)
		}
	}
}

func TestResultCarriesSnapshot(t *testing.T) {
	snap := &dsps.Snapshot{
		At: time.Unix(0, 1700000000),
		Tasks: []dsps.TaskStats{{
			TaskID: 1, Topology: "t", Component: "c", WorkerID: "w", NodeID: "n",
			Executed: 10, Emitted: 10, Acked: 9,
		}},
	}
	r := Result{ReqID: 9, Status: StatusOK, Snap: snap}
	got, err := DecodeResult(AppendResult(nil, r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Snap == nil || len(got.Snap.Tasks) != 1 || got.Snap.Tasks[0].Executed != 10 {
		t.Fatalf("snapshot lost: %+v", got.Snap)
	}
	if !got.Snap.At.Equal(snap.At) {
		t.Fatalf("At = %v want %v", got.Snap.At, snap.At)
	}
}

func TestGoodbyeRoundTrip(t *testing.T) {
	g := Goodbye{Reason: "context cancelled"}
	got, err := DecodeGoodbye(AppendGoodbye(nil, g))
	if err != nil {
		t.Fatal(err)
	}
	if got != g {
		t.Fatalf("got %+v want %+v", got, g)
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	raw := AppendHeartbeat(nil, Heartbeat{Seq: 1})
	if _, err := DecodeHeartbeat(append(raw, 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestDecodeRejectsHugeStringLength(t *testing.T) {
	// A Reject whose detail claims 0xFFFF bytes but carries none must fail
	// cleanly, not allocate or panic.
	raw := []byte{RejectBadHello, 0xFF, 0xFF}
	if _, err := DecodeReject(raw); err == nil {
		t.Fatal("huge string length accepted")
	}
}

// TestWireDocExample pins the worked hexdump in docs/WIRE_PROTOCOL.md: a
// Heartbeat{Seq: 7, InFlight: 2} frame must encode to exactly these
// bytes. If this test fails, the encoder changed and the spec's example
// (and the protocol version) must be revisited.
func TestWireDocExample(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, MsgHeartbeat, AppendHeartbeat(nil, Heartbeat{Seq: 7, InFlight: 2})); err != nil {
		t.Fatal(err)
	}
	want := []byte{
		0x00, 0x00, 0x00, 0x0D, // bodyLen = 13
		0x04,                                           // MsgHeartbeat
		0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, // seq = 7
		0x00, 0x00, 0x00, 0x02, // inFlight = 2
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("frame = % X, want % X", buf.Bytes(), want)
	}

	// Second worked example in the spec: the opening Hello.
	hello := Hello{
		MinVersion: 1, MaxVersion: 1,
		Name: "w1", Topology: "tpc", QueueSize: 64,
		Spouts: []string{"src"}, Controlled: []string{"work"},
	}
	buf.Reset()
	if err := WriteFrame(&buf, MsgHello, AppendHello(nil, hello)); err != nil {
		t.Fatal(err)
	}
	wantHello := []byte{
		0x00, 0x00, 0x00, 0x29, // bodyLen = 41
		0x01,                   // MsgHello
		0x50, 0x44, 0x53, 0x50, // magic "PDSP"
		0x01, 0x01, // minVersion = 1, maxVersion = 1
		0x00, 0x00, // flags (reserved)
		0x00, 0x02, 0x77, 0x31, // name = "w1"
		0x00, 0x03, 0x74, 0x70, 0x63, // topology = "tpc"
		0x00, 0x00, 0x00, 0x40, // queueSize = 64
		0x00, 0x00, 0x00, 0x01, 0x00, 0x03, 0x73, 0x72, 0x63, // spouts = ["src"]
		0x00, 0x00, 0x00, 0x01, 0x00, 0x04, 0x77, 0x6F, 0x72, 0x6B, // controlled = ["work"]
	}
	if !bytes.Equal(buf.Bytes(), wantHello) {
		t.Fatalf("hello frame = % X, want % X", buf.Bytes(), wantHello)
	}
}

// TestWireSpecCovers asserts that every message type, opcode, reject
// code, and result status defined in wire.go is named in
// docs/WIRE_PROTOCOL.md, so a new wire construct cannot land without a
// matching spec entry.
func TestWireSpecCovers(t *testing.T) {
	spec, err := os.ReadFile(filepath.Join("..", "..", "docs", "WIRE_PROTOCOL.md"))
	if err != nil {
		t.Fatalf("read spec: %v", err)
	}
	text := string(spec)

	names := []string{
		"MsgHello", "MsgWelcome", "MsgReject", "MsgHeartbeat",
		"MsgMetrics", "MsgCommand", "MsgResult", "MsgGoodbye",
		"OpPing", "OpSnapshot", "OpSetRatios", "OpScaleUp", "OpScaleDown",
		"OpInjectFault", "OpClearFault", "OpCheckInvariants", "OpShutdown",
		"RejectVersion", "RejectDuplicate", "RejectShuttingDown", "RejectBadHello",
		"StatusOK", "StatusError", "StatusUnsupported",
	}
	for _, name := range names {
		if !strings.Contains(text, name) {
			t.Errorf("docs/WIRE_PROTOCOL.md does not mention %s", name)
		}
	}
	// Retired op values stay reserved in the spec so no new op reuses
	// them.
	for _, v := range []string{"0x08", "0x09", "0x0A"} {
		if !strings.Contains(text, "| retired | `"+v+"` |") {
			t.Errorf("docs/WIRE_PROTOCOL.md does not mark op %s retired", v)
		}
	}

	// The static list above must itself stay complete: parse wire.go and
	// compare against every exported Msg*/Op*/Reject*/Status* constant.
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "wire.go", nil, 0)
	if err != nil {
		t.Fatalf("parse wire.go: %v", err)
	}
	listed := make(map[string]bool, len(names))
	for _, name := range names {
		listed[name] = true
	}
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, s := range gd.Specs {
			vs, ok := s.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, ident := range vs.Names {
				n := ident.Name
				for _, prefix := range []string{"Msg", "Op", "Reject", "Status"} {
					if strings.HasPrefix(n, prefix) && len(n) > len(prefix) {
						if !listed[n] {
							t.Errorf("wire.go defines %s but TestWireSpecCovers (and likely the spec) does not list it", n)
						}
					}
				}
			}
		}
	}
}
