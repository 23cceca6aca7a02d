package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"testing"
)

func TestWireFrameRoundTrip(t *testing.T) {
	windows := [][][]float64{
		{{1}},
		{{1.5, -2.25}, {math.Inf(1), 0}, {1e-300, math.MaxFloat64}},
		testWindow(10, 9, 3.75),
	}
	for i, win := range windows {
		frame, err := EncodeWireFrame(nil, win)
		if err != nil {
			t.Fatalf("window %d: %v", i, err)
		}
		body, err := ReadWireFrame(bytes.NewReader(frame))
		if err != nil {
			t.Fatalf("window %d: read: %v", i, err)
		}
		got, err := DecodeWireFrame(body)
		if err != nil {
			t.Fatalf("window %d: decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, win) {
			t.Fatalf("window %d: round-trip mismatch:\n got %v\nwant %v", i, got, win)
		}
	}
}

func TestWireFrameEncodeRejects(t *testing.T) {
	if _, err := EncodeWireFrame(nil, nil); err == nil {
		t.Fatal("expected empty-window error")
	}
	if _, err := EncodeWireFrame(nil, [][]float64{{}}); err == nil {
		t.Fatal("expected empty-row error")
	}
	if _, err := EncodeWireFrame(nil, [][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("expected ragged-window error")
	}
}

func TestWireFrameDecodeRejects(t *testing.T) {
	valid, err := EncodeWireFrame(nil, [][]float64{{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	body := valid[4:]
	cases := map[string][]byte{
		"empty":            {},
		"short header":     body[:4],
		"bad version":      append([]byte{99}, body[1:]...),
		"reserved nonzero": append([]byte{WireVersion, 7}, body[2:]...),
		"truncated data":   body[:len(body)-1],
		"trailing data":    append(append([]byte{}, body...), 0),
		"zero steps":       {WireVersion, 0, 0, 0, 0, 1},
		"zero features":    {WireVersion, 0, 0, 1, 0, 0},
	}
	for name, b := range cases {
		if _, err := DecodeWireFrame(b); err == nil {
			t.Fatalf("%s: expected decode error", name)
		}
	}
}

func TestReadWireFrameLimits(t *testing.T) {
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], uint32(maxWireBody+1))
	if _, err := ReadWireFrame(bytes.NewReader(huge[:])); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("expected ErrFrameTooLarge, got %v", err)
	}
	if _, err := ReadWireFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("expected clean io.EOF, got %v", err)
	}
	if _, err := ReadWireFrame(bytes.NewReader([]byte{0, 0})); err == nil {
		t.Fatal("expected truncated-prefix error")
	}
}

func TestWireResponseRoundTrip(t *testing.T) {
	frame := AppendWireResponse(nil, StatusOK, -12.5)
	status, pred, err := ReadWireResponse(bytes.NewReader(frame))
	if err != nil || status != StatusOK || pred != -12.5 {
		t.Fatalf("round trip = (%d, %v, %v)", status, pred, err)
	}
}

// TestTCPServerEndToEnd runs real connections through the full
// listener → frame → coalescer → response path, including pipelined
// frames on one connection and a shed under a gated backend.
func TestTCPServerEndToEnd(t *testing.T) {
	b := newStubBackend(3, 2)
	c := NewCoalescer(b, Options{MaxBatch: 4, QueueDepth: 64}, nil)
	defer c.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := ServeTCP(ln, c)
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Pipeline several frames, then read the answers in order.
	const N = 5
	var buf []byte
	for i := 0; i < N; i++ {
		buf, err = EncodeWireFrame(buf, testWindow(3, 2, float64(10+i)))
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < N; i++ {
		status, pred, err := ReadWireResponse(conn)
		if err != nil {
			t.Fatal(err)
		}
		if status != StatusOK || pred != float64(10+i) {
			t.Fatalf("frame %d: (%d, %v), want (OK, %d)", i, status, pred, 10+i)
		}
	}

	// A wrong-shape window answers StatusBadRequest and keeps the
	// connection usable.
	frame, err := EncodeWireFrame(nil, testWindow(2, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	if status, _, err := ReadWireResponse(conn); err != nil || status != StatusBadRequest {
		t.Fatalf("bad shape: (%d, %v), want StatusBadRequest", status, err)
	}
	frame, _ = EncodeWireFrame(nil, testWindow(3, 2, 77))
	conn.Write(frame)
	if status, pred, err := ReadWireResponse(conn); err != nil || status != StatusOK || pred != 77 {
		t.Fatalf("after bad shape: (%d, %v, %v), want (OK, 77)", status, pred, err)
	}
}

// FuzzServeWireFrame hardens DecodeWireFrame against arbitrary bytes: it
// must never panic, and an accepted body must re-encode to the identical
// frame (canonical round-trip).
func FuzzServeWireFrame(f *testing.F) {
	seed1, _ := EncodeWireFrame(nil, [][]float64{{1, 2}, {3, 4}})
	seed2, _ := EncodeWireFrame(nil, testWindow(10, 9, 1.5))
	f.Add(seed1[4:])
	f.Add(seed2[4:])
	f.Add([]byte{})
	f.Add([]byte{WireVersion, 0, 0, 1, 0, 1})
	f.Add([]byte{WireVersion, 0, 255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, body []byte) {
		window, err := DecodeWireFrame(body)
		if err != nil {
			return
		}
		frame, err := EncodeWireFrame(nil, window)
		if err != nil {
			t.Fatalf("decoded window failed to re-encode: %v", err)
		}
		if !bytes.Equal(frame[4:], body) {
			t.Fatalf("round trip not canonical:\n got %x\nwant %x", frame[4:], body)
		}
	})
}
