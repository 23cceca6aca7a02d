package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
)

// The raw-TCP protocol is a length-prefixed binary framing built on
// encoding/binary, big-endian throughout:
//
//	request  frame: uint32 body length | body
//	request  body:  uint8 version (=1) | uint8 reserved (=0)
//	                | uint16 steps T | uint16 features F
//	                | T·F float64 bits, row-major
//	response frame: uint32 body length | uint8 status | float64 prediction
//
// The prediction is meaningful only for StatusOK; other statuses carry 0.

// WireVersion is the request frame version this package speaks.
const WireVersion = 1

// Response status codes of the TCP protocol.
const (
	// StatusOK carries a prediction.
	StatusOK = 0
	// StatusOverloaded reports the request was shed (retry later).
	StatusOverloaded = 1
	// StatusBadRequest reports a malformed or wrong-shape frame.
	StatusBadRequest = 2
	// StatusError reports a backend failure or server shutdown.
	StatusError = 3
)

// Wire-format limits: frames beyond them are rejected before any
// allocation proportional to attacker-controlled sizes.
const (
	// MaxWireSteps bounds the window length a frame may carry.
	MaxWireSteps = 4096
	// MaxWireFeatures bounds the per-step feature count a frame may carry.
	MaxWireFeatures = 1024
	// maxWireBody is the largest request body ReadWireFrame accepts.
	maxWireBody   = wireHeaderLen + 8*MaxWireSteps*MaxWireFeatures
	wireHeaderLen = 6
)

// ErrFrameTooLarge reports a request frame beyond maxWireBody.
var ErrFrameTooLarge = errors.New("serve: wire frame too large")

// EncodeWireFrame appends the request frame for window to dst and returns
// the extended slice. The window must be non-empty, rectangular, and
// within the wire limits.
func EncodeWireFrame(dst []byte, window [][]float64) ([]byte, error) {
	T := len(window)
	if T == 0 || T > MaxWireSteps {
		return nil, fmt.Errorf("serve: window of %d steps outside [1, %d]", T, MaxWireSteps)
	}
	F := len(window[0])
	if F == 0 || F > MaxWireFeatures {
		return nil, fmt.Errorf("serve: window of %d features outside [1, %d]", F, MaxWireFeatures)
	}
	body := wireHeaderLen + 8*T*F
	dst = binary.BigEndian.AppendUint32(dst, uint32(body))
	dst = append(dst, WireVersion, 0)
	dst = binary.BigEndian.AppendUint16(dst, uint16(T))
	dst = binary.BigEndian.AppendUint16(dst, uint16(F))
	for t, row := range window {
		if len(row) != F {
			return nil, fmt.Errorf("serve: ragged window: step %d has %d features, want %d", t, len(row), F)
		}
		for _, v := range row {
			dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(v))
		}
	}
	return dst, nil
}

// DecodeWireFrame parses a request body (the bytes after the length
// prefix) into a feature window. It is a pure function — the fuzz target
// FuzzServeWireFrame drives it with arbitrary bytes — and never allocates
// more than the decoded window itself.
func DecodeWireFrame(body []byte) ([][]float64, error) {
	if len(body) < wireHeaderLen {
		return nil, fmt.Errorf("serve: frame body of %d bytes shorter than header", len(body))
	}
	if body[0] != WireVersion {
		return nil, fmt.Errorf("serve: unsupported wire version %d", body[0])
	}
	if body[1] != 0 {
		return nil, fmt.Errorf("serve: nonzero reserved byte %d", body[1])
	}
	T := int(binary.BigEndian.Uint16(body[2:4]))
	F := int(binary.BigEndian.Uint16(body[4:6]))
	if T == 0 || T > MaxWireSteps {
		return nil, fmt.Errorf("serve: frame of %d steps outside [1, %d]", T, MaxWireSteps)
	}
	if F == 0 || F > MaxWireFeatures {
		return nil, fmt.Errorf("serve: frame of %d features outside [1, %d]", F, MaxWireFeatures)
	}
	if want := wireHeaderLen + 8*T*F; len(body) != want {
		return nil, fmt.Errorf("serve: frame body of %d bytes, want %d for %d×%d", len(body), want, T, F)
	}
	window := make([][]float64, T)
	flat := make([]float64, T*F)
	off := wireHeaderLen
	for i := range flat {
		flat[i] = math.Float64frombits(binary.BigEndian.Uint64(body[off : off+8]))
		off += 8
	}
	for t := range window {
		window[t] = flat[t*F : (t+1)*F]
	}
	return window, nil
}

// ReadWireFrame reads one length-prefixed request body from r. It returns
// io.EOF on a clean end-of-stream before any prefix byte.
func ReadWireFrame(r io.Reader) ([]byte, error) {
	var prefix [4]byte
	if _, err := io.ReadFull(r, prefix[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("serve: truncated frame prefix: %w", err)
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(prefix[:])
	if n > maxWireBody {
		return nil, ErrFrameTooLarge
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("serve: truncated frame body: %w", err)
	}
	return body, nil
}

// AppendWireResponse appends a response frame to dst.
func AppendWireResponse(dst []byte, status uint8, prediction float64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, 9)
	dst = append(dst, status)
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(prediction))
}

// ReadWireResponse reads one response frame from r (the client half of
// the protocol).
func ReadWireResponse(r io.Reader) (status uint8, prediction float64, err error) {
	var frame [13]byte
	if _, err := io.ReadFull(r, frame[:]); err != nil {
		return 0, 0, err
	}
	if n := binary.BigEndian.Uint32(frame[:4]); n != 9 {
		return 0, 0, fmt.Errorf("serve: response body of %d bytes, want 9", n)
	}
	return frame[4], math.Float64frombits(binary.BigEndian.Uint64(frame[5:13])), nil
}

// TCPServer serves the binary protocol over a listener; create with
// ServeTCP, stop with Close.
type TCPServer struct {
	ln   net.Listener
	coal *Coalescer
	wg   sync.WaitGroup
}

// ServeTCP starts accepting binary-protocol connections on ln, answering
// each frame through the coalescer. One goroutine per connection; frames
// on a connection are answered in order.
func ServeTCP(ln net.Listener, coal *Coalescer) *TCPServer {
	s := &TCPServer{ln: ln, coal: coal}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener address.
func (s *TCPServer) Addr() net.Addr { return s.ln.Addr() }

// Close stops the listener and waits for connection handlers to finish
// their in-flight frame.
func (s *TCPServer) Close() error {
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

func (s *TCPServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go s.handle(conn)
	}
}

func (s *TCPServer) handle(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	var out []byte
	for {
		body, err := ReadWireFrame(conn)
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				// Oversized or garbled framing: answer once, then drop the
				// connection — resynchronization is not possible.
				out = AppendWireResponse(out[:0], StatusBadRequest, 0)
				conn.Write(out)
			}
			return
		}
		window, err := DecodeWireFrame(body)
		var status uint8
		var pred float64
		switch {
		case err != nil:
			status = StatusBadRequest
		default:
			pred, err = s.coal.Predict(context.Background(), window)
			switch {
			case err == nil:
				status = StatusOK
			case errors.Is(err, ErrOverloaded):
				status = StatusOverloaded
			case errors.Is(err, ErrClosed):
				status = StatusError
			default:
				status = StatusBadRequest
				pred = 0
			}
		}
		if status != StatusOK {
			pred = 0
		}
		out = AppendWireResponse(out[:0], status, pred)
		if _, err := conn.Write(out); err != nil {
			return
		}
	}
}
