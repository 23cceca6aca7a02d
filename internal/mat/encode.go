package mat

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// denseWire is the stable on-wire representation of a Dense matrix.
type denseWire struct {
	Rows, Cols int
	Data       []float64
}

// GobEncode implements gob.GobEncoder so model checkpoints can serialize
// matrices despite their unexported fields.
func (m *Dense) GobEncode() ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(denseWire{Rows: m.rows, Cols: m.cols, Data: m.data}); err != nil {
		return nil, fmt.Errorf("mat: gob encode: %w", err)
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder.
func (m *Dense) GobDecode(b []byte) error {
	var w denseWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return fmt.Errorf("mat: gob decode: %w", err)
	}
	// Divide rather than multiply: Rows*Cols can overflow and wrap to
	// len(Data) for forged dimensions.
	if w.Rows <= 0 || w.Cols <= 0 || len(w.Data)%w.Rows != 0 || len(w.Data)/w.Rows != w.Cols {
		return fmt.Errorf("mat: gob decode: inconsistent payload %dx%d with %d elements", w.Rows, w.Cols, len(w.Data))
	}
	m.rows, m.cols, m.data = w.Rows, w.Cols, w.Data
	return nil
}
