package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"

	"predstream/internal/mat"
)

// checkpoint is the gob wire format for a Network.
type checkpoint struct {
	In          int
	Out         int
	LSTMHidden  []int
	DenseHidden []int
	HiddenAct   string
	Cell        string // recurrent cell; only "" and "lstm" load

	LSTMWx [][]*mat.Dense
	LSTMWh [][]*mat.Dense
	LSTMB  [][]*mat.Dense
	HeadW  []*mat.Dense
	HeadB  []*mat.Dense
}

// Save serializes the network's architecture and weights to w.
func Save(net *Network, w io.Writer) error {
	cp := checkpoint{
		In:   net.InSize(),
		Out:  net.OutSize(),
		Cell: "lstm",
	}
	for _, l := range net.Recurrent {
		cp.LSTMHidden = append(cp.LSTMHidden, l.Hidden)
		wx, wh, b := l.Weights()
		cp.LSTMWx = append(cp.LSTMWx, wx)
		cp.LSTMWh = append(cp.LSTMWh, wh)
		cp.LSTMB = append(cp.LSTMB, b)
	}
	for i, d := range net.Head {
		if i < len(net.Head)-1 {
			cp.DenseHidden = append(cp.DenseHidden, d.Out)
			cp.HiddenAct = d.Act.Name
		}
		dw, db := d.Weights()
		cp.HeadW = append(cp.HeadW, dw)
		cp.HeadB = append(cp.HeadB, db)
	}
	if err := gob.NewEncoder(w).Encode(cp); err != nil {
		return fmt.Errorf("nn: save: %w", err)
	}
	return nil
}

// Load reconstructs a network from a checkpoint written by Save. A
// checkpoint is outside input, so Load checks the cell, every layer size
// and every weight shape before it builds anything, and returns an error
// for a malformed checkpoint instead of panicking. Checking shapes first
// also bounds what building allocates by what the checkpoint holds.
func Load(r io.Reader) (*Network, error) {
	var cp checkpoint
	if err := gob.NewDecoder(r).Decode(&cp); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	if err := cp.validate(); err != nil {
		return nil, err
	}
	// Rebuild with a throwaway rng; weights are overwritten below.
	net := NewNetwork(Arch{
		In:          cp.In,
		LSTMHidden:  cp.LSTMHidden,
		DenseHidden: cp.DenseHidden,
		Out:         cp.Out,
		HiddenAct:   ActivationByName(cp.HiddenAct),
	}, rand.New(rand.NewSource(0)))
	for i, l := range net.Recurrent {
		if err := l.SetWeights(cp.LSTMWx[i], cp.LSTMWh[i], cp.LSTMB[i]); err != nil {
			return nil, err
		}
	}
	for i, d := range net.Head {
		if err := d.SetWeights(cp.HeadW[i], cp.HeadB[i]); err != nil {
			return nil, err
		}
	}
	return net, nil
}

// validate checks everything NewNetwork and SetWeights would otherwise
// panic on or allocate from: the cell, the layer sizes, the layer counts
// and each layer's weight shapes.
func (cp *checkpoint) validate() error {
	if cp.Cell != "" && cp.Cell != "lstm" {
		return fmt.Errorf("nn: load: recurrent cell %q is not supported, only lstm", cp.Cell)
	}
	if cp.In <= 0 || cp.Out <= 0 {
		return fmt.Errorf("nn: load: malformed checkpoint: in=%d out=%d", cp.In, cp.Out)
	}
	if len(cp.LSTMHidden) == 0 {
		return fmt.Errorf("nn: load: malformed checkpoint: no lstm layer")
	}
	if len(cp.LSTMWx) != len(cp.LSTMHidden) || len(cp.LSTMWh) != len(cp.LSTMHidden) || len(cp.LSTMB) != len(cp.LSTMHidden) ||
		len(cp.HeadW) != len(cp.DenseHidden)+1 || len(cp.HeadB) != len(cp.HeadW) {
		return fmt.Errorf("nn: load: layer count mismatch")
	}
	in := cp.In
	for i, h := range cp.LSTMHidden {
		if h <= 0 {
			return fmt.Errorf("nn: load: lstm layer %d has hidden size %d", i, h)
		}
		if err := checkLSTMShapes(in, h, cp.LSTMWx[i], cp.LSTMWh[i], cp.LSTMB[i]); err != nil {
			return err
		}
		in = h
	}
	outs := append(append([]int(nil), cp.DenseHidden...), cp.Out)
	for i, out := range outs {
		if out <= 0 {
			return fmt.Errorf("nn: load: dense layer %d has size %d", i, out)
		}
		if err := checkDenseShapes(in, out, cp.HeadW[i], cp.HeadB[i]); err != nil {
			return err
		}
		in = out
	}
	return nil
}
