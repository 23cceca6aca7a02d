// Package mat provides dense float64 vector and matrix primitives used by
// the neural-network, ARIMA and SVR packages. It is deliberately small:
// row-major dense storage, explicit dimension checks, and the
// register-blocked GEMV/GEMM kernels the DRNN's forward and backward
// passes run.
package mat

import (
	"fmt"
	"math"
	"math/rand"
)

// Dense is a row-major dense matrix of float64.
type Dense struct {
	rows, cols int
	data       []float64
}

// New returns a zeroed rows×cols matrix. It panics if either dimension is
// not positive, because a zero-dimension matrix is always a caller bug in
// this codebase.
func New(rows, cols int) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Wrap returns a rows×cols matrix backed directly by data (no copy), which
// must have exactly rows*cols elements in row-major order. Mutating the
// matrix mutates data and vice versa; workspace arenas use it to reshape a
// pooled buffer without allocating.
func Wrap(rows, cols int, data []float64) *Dense {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: Wrap got %d elements for %dx%d", len(data), rows, cols))
	}
	//dspslint:ignore allocfree Wrap inlines into workspace callers and the header stays on the stack (forward-path benchmarks pin 0 allocs/op)
	return &Dense{rows: rows, cols: cols, data: data}
}

// Dims returns the dimensions of m.
func (m *Dense) Dims() (rows, cols int) { return m.rows, m.cols }

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range for %dx%d", i, j, m.rows, m.cols))
	}
}

// Data returns the backing slice of m in row-major order. Mutating it
// mutates the matrix; callers that need isolation should Copy first.
func (m *Dense) Data() []float64 { return m.data }

// Copy returns a deep copy of m.
func (m *Dense) Copy() *Dense {
	out := New(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Zero sets every element of m to 0 in place.
func (m *Dense) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// Fill sets every element of m to v in place.
func (m *Dense) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// AddInPlace adds n into m and returns m.
func (m *Dense) AddInPlace(n *Dense) *Dense {
	m.sameDims(n, "AddInPlace")
	for i, v := range n.data {
		m.data[i] += v
	}
	return m
}

// ScaleInPlace multiplies every element of m by c and returns m.
func (m *Dense) ScaleInPlace(c float64) *Dense {
	for i := range m.data {
		m.data[i] *= c
	}
	return m
}

// T returns the transpose of m.
func (m *Dense) T() *Dense {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		base := i * m.cols
		for j := 0; j < m.cols; j++ {
			out.data[j*m.rows+i] = m.data[base+j]
		}
	}
	return out
}

func (m *Dense) sameDims(n *Dense, op string) {
	if m.rows != n.rows || m.cols != n.cols {
		panic(fmt.Sprintf("mat: %s dimension mismatch %dx%d vs %dx%d", op, m.rows, m.cols, n.rows, n.cols))
	}
}

// MatMul returns m × n. m.Cols must equal n.Rows. The ikj loop order
// streams both n and out rows sequentially in the inner loop.
func (m *Dense) MatMul(n *Dense) *Dense {
	if m.cols != n.rows {
		panic(fmt.Sprintf("mat: MatMul dimension mismatch %dx%d × %dx%d", m.rows, m.cols, n.rows, n.cols))
	}
	out := New(m.rows, n.cols)
	for i := 0; i < m.rows; i++ {
		outRow := out.data[i*out.cols : (i+1)*out.cols]
		mRow := m.data[i*m.cols : (i+1)*m.cols]
		for k, mv := range mRow {
			if mv == 0 {
				continue
			}
			nRow := n.data[k*n.cols : (k+1)*n.cols]
			for j, nv := range nRow {
				outRow[j] += mv * nv
			}
		}
	}
	return out
}

// MulVec returns m × v as a new vector. len(v) must equal m.Cols.
func (m *Dense) MulVec(v []float64) []float64 {
	if len(v) != m.cols {
		panic(fmt.Sprintf("mat: MulVec got vector of %d for %dx%d", len(v), m.rows, m.cols))
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.cols : (i+1)*m.cols]
		var s float64
		for j, rv := range row {
			s += rv * v[j]
		}
		out[i] = s
	}
	return out
}

// MulVecTo computes dst = m × v in place, returning dst. It is the
// allocation-free variant of MulVec for hot paths that own a reusable
// output buffer. len(v) must equal m.Cols and len(dst) must equal m.Rows.
func (m *Dense) MulVecTo(dst, v []float64) []float64 {
	if len(v) != m.cols || len(dst) != m.rows {
		panic(fmt.Sprintf("mat: MulVecTo got dst %d, v %d for %dx%d", len(dst), len(v), m.rows, m.cols))
	}
	m.gemv(dst, v, false)
	return dst
}

// MulVecAdd computes dst += m × v in place, returning dst. Dimensions as
// in MulVecTo.
func (m *Dense) MulVecAdd(dst, v []float64) []float64 {
	if len(v) != m.cols || len(dst) != m.rows {
		panic(fmt.Sprintf("mat: MulVecAdd got dst %d, v %d for %dx%d", len(dst), len(v), m.rows, m.cols))
	}
	m.gemv(dst, v, true)
	return dst
}

// gemv computes dst = m × v, or dst += m × v when accumulate is set. Four
// rows share each load of v[j] and keep four independent accumulators, so
// the adds of one row no longer wait on the adds of the row before. Each
// row's sum still runs over j in order, which keeps every result bit for
// bit what a row-at-a-time dot product gives.
//
//dsps:hotpath
func (m *Dense) gemv(dst, v []float64, accumulate bool) {
	n := len(v)
	dst = dst[:m.rows]
	i := 0
	for ; i+4 <= m.rows; i += 4 {
		r0 := m.data[i*n:][:n]
		r1 := m.data[(i+1)*n:][:n]
		r2 := m.data[(i+2)*n:][:n]
		r3 := m.data[(i+3)*n:][:n]
		var s0, s1, s2, s3 float64
		for j, x := range v {
			s0 += r0[j] * x
			s1 += r1[j] * x
			s2 += r2[j] * x
			s3 += r3[j] * x
		}
		d := dst[i : i+4]
		if accumulate {
			d[0] += s0
			d[1] += s1
			d[2] += s2
			d[3] += s3
		} else {
			d[0], d[1], d[2], d[3] = s0, s1, s2, s3
		}
	}
	for ; i < m.rows; i++ {
		row := m.data[i*n:][:n]
		var s float64
		for j, x := range v {
			s += row[j] * x
		}
		if accumulate {
			dst[i] += s
		} else {
			dst[i] = s
		}
	}
}

// Norm returns the Frobenius norm of m.
func (m *Dense) Norm() float64 {
	var s float64
	for _, v := range m.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// String renders m for debugging.
func (m *Dense) String() string {
	s := fmt.Sprintf("Dense %dx%d [", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			s += "; "
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				s += " "
			}
			s += fmt.Sprintf("%.4g", m.At(i, j))
		}
	}
	return s + "]"
}

// RandXavier fills m with Glorot/Xavier-uniform values appropriate for tanh
// and sigmoid layers: U(-l, l) with l = sqrt(6/(fanIn+fanOut)).
func (m *Dense) RandXavier(rng *rand.Rand) *Dense {
	limit := math.Sqrt(6.0 / float64(m.rows+m.cols))
	for i := range m.data {
		m.data[i] = (rng.Float64()*2 - 1) * limit
	}
	return m
}

// RandHe fills m with He-normal values appropriate for ReLU layers:
// N(0, sqrt(2/fanIn)) where fanIn is the column count.
func (m *Dense) RandHe(rng *rand.Rand) *Dense {
	std := math.Sqrt(2.0 / float64(m.cols))
	for i := range m.data {
		m.data[i] = rng.NormFloat64() * std
	}
	return m
}

// RandUniform fills m with U(-scale, scale) values.
func (m *Dense) RandUniform(rng *rand.Rand, scale float64) *Dense {
	for i := range m.data {
		m.data[i] = (rng.Float64()*2 - 1) * scale
	}
	return m
}
