package drnn

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"predstream/internal/mat"
)

// netCheckpoint mirrors the gob fields of nn's checkpoint, so tests here
// can forge a network payload that decodes cleanly but is malformed.
type netCheckpoint struct {
	In          int
	Out         int
	LSTMHidden  []int
	DenseHidden []int
	HiddenAct   string
	Cell        string

	LSTMWx [][]*mat.Dense
	LSTMWh [][]*mat.Dense
	LSTMB  [][]*mat.Dense
	HeadW  []*mat.Dense
	HeadB  []*mat.Dense
}

// savedCheckpoint returns the checkpoint of a tiny fitted predictor.
func savedCheckpoint(t testing.TB) []byte {
	t.Helper()
	p := New(Config{Window: 4, Hidden: []int{3}, DenseHidden: []int{2}, Epochs: 1, Seed: 3})
	if err := p.Fit(sineSeries(40, 0, 3)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// editCheckpoint decodes a predictor checkpoint, applies edit to its
// predictor fields and its network payload, and re-encodes it.
func editCheckpoint(t testing.TB, ckpt []byte, edit func(cp *checkpoint, net *netCheckpoint)) []byte {
	t.Helper()
	var cp checkpoint
	if err := gob.NewDecoder(bytes.NewReader(ckpt)).Decode(&cp); err != nil {
		t.Fatal(err)
	}
	var net netCheckpoint
	if err := gob.NewDecoder(bytes.NewReader(cp.NetBytes)).Decode(&net); err != nil {
		t.Fatal(err)
	}
	edit(&cp, &net)
	var netBuf, buf bytes.Buffer
	if err := gob.NewEncoder(&netBuf).Encode(net); err != nil {
		t.Fatal(err)
	}
	cp.NetBytes = netBuf.Bytes()
	if err := gob.NewEncoder(&buf).Encode(cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func setCell(cell string) func(*checkpoint, *netCheckpoint) {
	return func(_ *checkpoint, net *netCheckpoint) { net.Cell = cell }
}

// TestUnknownCellRejected loads checkpoints whose network names a cell
// other than the LSTM: each is an error, not a panic.
func TestUnknownCellRejected(t *testing.T) {
	good := savedCheckpoint(t)
	for _, cell := range []string{"gru", "rnn"} {
		_, err := Load(bytes.NewReader(editCheckpoint(t, good, setCell(cell))))
		if err == nil || !strings.Contains(err.Error(), `cell "`+cell+`"`) {
			t.Fatalf("cell %q: Load error = %v", cell, err)
		}
	}
}

// TestLoadRejectsScalerMismatch loads a checkpoint whose feature scalers
// do not match the network's input width, which would otherwise panic in
// the first prediction's input scaling.
func TestLoadRejectsScalerMismatch(t *testing.T) {
	bad := editCheckpoint(t, savedCheckpoint(t), func(cp *checkpoint, _ *netCheckpoint) {
		cp.FeatScalers = cp.FeatScalers[:0]
	})
	if _, err := Load(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "scales 0 features") {
		t.Fatalf("Load error = %v", err)
	}
}

// FuzzCheckpointLoad feeds Load arbitrary bytes. Load must return an
// error or a predictor that serves a window of its own shape and survives
// a Save/Load round trip with the same prediction.
func FuzzCheckpointLoad(f *testing.F) {
	good := savedCheckpoint(f)
	f.Add(good)
	f.Add(editCheckpoint(f, good, setCell("rnn")))
	f.Add(editCheckpoint(f, good, func(_ *checkpoint, net *netCheckpoint) { net.LSTMHidden = []int{-4} }))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		inf, err := p.Inference(false)
		if err != nil {
			t.Fatalf("loaded predictor has no inference handle: %v", err)
		}
		if inf.Window()*inf.Features() > 1<<12 {
			return
		}
		window := make([][]float64, inf.Window())
		for i := range window {
			window[i] = make([]float64, inf.Features())
			for j := range window[i] {
				window[i][j] = float64(i - j)
			}
		}
		want, err := inf.PredictOne(window)
		if err != nil {
			t.Fatalf("loaded predictor rejects a window of its own shape: %v", err)
		}
		var buf bytes.Buffer
		if err := p.Save(&buf); err != nil {
			t.Fatalf("loaded predictor does not save: %v", err)
		}
		q, err := Load(&buf)
		if err != nil {
			t.Fatalf("saved predictor does not load: %v", err)
		}
		qinf, err := q.Inference(false)
		if err != nil {
			t.Fatal(err)
		}
		got, err := qinf.PredictOne(window)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("round trip changed the prediction: %v, want %v", got, want)
		}
	})
}
