// Package serve turns a fitted DRNN predictor into a prediction service:
// requests that arrive while the model is busy are coalesced into the
// next micro-batch (bounded by a max batch size) so the model runs one
// batched GEMM forward pass per flush instead of one GEMV per request,
// while a request that finds it idle is evaluated at once. One dispatcher
// per core (runtime.GOMAXPROCS) evaluates batches in parallel; admission is
// controlled by a bounded queue with explicit load shedding, and p50/p99
// latency SLO metrics are exported through the internal/obs registry as
// the predstream_serve_* families.
//
// The package is transport-agnostic at its core — Coalescer accepts any
// Backend — with two thin frontends: an HTTP/JSON handler (Handler) and a
// raw-TCP length-prefixed binary protocol (ServeTCP, wire format in
// wire.go). cmd/predictd wires both to a drnn.Inference backend.
package serve

import "errors"

// Backend evaluates micro-batches of raw feature windows. It must be safe
// for concurrent use. drnn.Inference satisfies it.
type Backend interface {
	// Window returns the required steps per request window.
	Window() int
	// Features returns the required features per window step.
	Features() int
	// PredictBatch evaluates windows[i] into out[i]; len(out) ==
	// len(windows).
	PredictBatch(windows [][][]float64, out []float64) error
}

// ErrOverloaded is returned when the admission queue is full and the
// request is shed; HTTP maps it to 429, the TCP protocol to
// StatusOverloaded.
var ErrOverloaded = errors.New("serve: overloaded, request shed")

// ErrClosed is returned for requests arriving after Close.
var ErrClosed = errors.New("serve: server closed")

// Options tunes the coalescer. Zero values take the defaults noted per
// field.
type Options struct {
	// MaxBatch is the largest micro-batch handed to the backend; requests
	// beyond it wait in the queue for the next flush. Default 16.
	MaxBatch int
	// QueueDepth bounds admitted-but-unbatched requests; beyond it
	// requests are shed with ErrOverloaded. Default 256.
	QueueDepth int
}

func (o Options) withDefaults() Options {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 16
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	return o
}
