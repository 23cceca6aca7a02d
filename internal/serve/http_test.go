package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

func postPredict(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHTTPPredict(t *testing.T) {
	b := newStubBackend(2, 2)
	c := NewCoalescer(b, Options{MaxBatch: 4, QueueDepth: 16}, nil)
	defer c.Close()
	h := Handler(c)

	payload, _ := json.Marshal(PredictRequest{Window: [][]float64{{5.5, 0}, {0, 0}}})
	rec := postPredict(t, h, string(payload))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d, body %s", rec.Code, rec.Body)
	}
	var resp PredictResponse
	if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Prediction != 5.5 {
		t.Fatalf("prediction %v, want 5.5", resp.Prediction)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	b := newStubBackend(2, 2)
	c := NewCoalescer(b, Options{}, nil)
	defer c.Close()
	h := Handler(c)

	if rec := postPredict(t, h, "{not json"); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d", rec.Code)
	}
	if rec := postPredict(t, h, `{"window": [[1, 2]]}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("wrong shape: status %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/predict", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /predict: status %d", rec.Code)
	}
	var e errorResponse
	if err := json.NewDecoder(rec.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("error body not JSON: %v %q", err, e.Error)
	}
}

func TestHTTPOverloadMapsTo429(t *testing.T) {
	b := newStubBackend(2, 1)
	b.gate = make(chan struct{})
	c := NewCoalescer(b, Options{MaxBatch: 1, QueueDepth: 1}, nil)
	defer c.Close()
	h := Handler(c)

	payload, _ := json.Marshal(PredictRequest{Window: [][]float64{{1}, {2}}})
	post := func() {
		req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(payload))
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	// Occupy every dispatcher, one at a time, then fill the queue.
	for k := 1; k <= runtime.GOMAXPROCS(0); k++ {
		go post()
		waitFor(t, func() bool { return b.calls.Load() == int64(k) })
	}
	go post()
	waitFor(t, func() bool { return len(c.queue) == 1 })

	rec := postPredict(t, h, string(payload))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (body %s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	close(b.gate)
}

func TestHTTPHealthz(t *testing.T) {
	b := newStubBackend(2, 1)
	c := NewCoalescer(b, Options{}, nil)
	defer c.Close()
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	Handler(c).ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Fatalf("healthz: %d %q", rec.Code, rec.Body.String())
	}
}
