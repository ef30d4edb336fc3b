// Package mat provides the small dense linear-algebra kernels used by the
// neural sequence taggers and the word-embedding trainer. It is deliberately
// minimal: float64 row-major matrices, the handful of BLAS-1/2/3 operations
// the models need, and deterministic parameter initialisation.
//
// All operations are single-threaded and allocation-transparent: methods that
// write into a receiver never allocate, and constructors state their
// allocation behaviour. Determinism matters here because the experiment
// harness must regenerate the paper's tables bit-for-bit across runs.
//
// The BiLSTM runs on order-preserving tiled kernels (seq.go): MulVecsAdd,
// RankOneAddSeq and MulVecTSeq apply a product to every timestep of a
// sentence in one pass, and MulVecAddTiled and MulVecTTiled are the
// single-vector forms for the recurrence. They load each weight row (or
// output) once per four timesteps or rows, yet give every output element
// its own accumulator and its terms in the order of the per-step kernels
// MulVecAdd, RankOneAdd and MulVecT, skipping the same zero terms, so their
// results are bit-identical. The per-step kernels stay as the reference
// FuzzTiledKernels checks them against.
package mat

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64 values.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// New returns a zeroed Rows×Cols matrix. It panics if either dimension is
// not positive, because a zero-sized parameter matrix is always a caller bug
// in this codebase.
func New(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data as a rows×cols matrix without copying. It panics if
// len(data) != rows*cols.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (no copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element of m to zero.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Scale multiplies every element of m by a.
func (m *Matrix) Scale(a float64) {
	for i := range m.Data {
		m.Data[i] *= a
	}
}

// AddScaled accumulates a*src into m. The matrices must have identical
// shapes.
func (m *Matrix) AddScaled(a float64, src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("mat: AddScaled shape mismatch")
	}
	for i, v := range src.Data {
		m.Data[i] += a * v
	}
}

// MulVec computes dst = m · x for a column vector x. len(x) must equal
// m.Cols and len(dst) must equal m.Rows. dst may not alias x.
func (m *Matrix) MulVec(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("mat: MulVec dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, w := range row {
			s += w * x[j]
		}
		dst[i] = s
	}
}

// MulVecAdd computes dst += m · x, the accumulate form of MulVec.
func (m *Matrix) MulVecAdd(dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic("mat: MulVecAdd dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, w := range row {
			s += w * x[j]
		}
		dst[i] += s
	}
}

// MulVecT computes dst += mᵀ · x, i.e. the transpose-vector product used by
// backpropagation. len(x) must equal m.Rows and len(dst) must equal m.Cols.
func (m *Matrix) MulVecT(dst, x []float64) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic("mat: MulVecT dimension mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			dst[j] += xi * w
		}
	}
}

// RankOneAdd accumulates the outer product a·x·yᵀ into m, the weight-gradient
// update used by backpropagation. len(x) must equal m.Rows and len(y) must
// equal m.Cols.
func (m *Matrix) RankOneAdd(a float64, x, y []float64) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic("mat: RankOneAdd dimension mismatch")
	}
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		axi := a * xi
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, yj := range y {
			row[j] += axi * yj
		}
	}
}

// Xavier fills m with Glorot-uniform values drawn from rng, scaled by the
// fan-in and fan-out of the matrix. This is the initialisation NeuroNER uses
// for its LSTM and projection weights.
func (m *Matrix) Xavier(rng *RNG) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = rng.Uniform(-limit, limit)
	}
}

// Uniform fills m with values drawn uniformly from [lo, hi).
func (m *Matrix) Uniform(rng *RNG, lo, hi float64) {
	for i := range m.Data {
		m.Data[i] = rng.Uniform(lo, hi)
	}
}

// Norm2 returns the Euclidean norm of the flattened matrix.
func (m *Matrix) Norm2() float64 {
	var s float64
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// ClipNorm rescales m in place so its Euclidean norm does not exceed max.
// Gradient clipping keeps the BiLSTM stable on the noisy bootstrapped
// training sets the pipeline produces.
func (m *Matrix) ClipNorm(max float64) {
	n := m.Norm2()
	if n > max && n > 0 {
		m.Scale(max / n)
	}
}
