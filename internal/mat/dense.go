// Package mat implements the dense linear-algebra substrate used by the
// coded-computing stack: row-major dense matrices, vectors, sequential and
// parallel multiplication kernels, and row-block partitioning.
//
// The package is deliberately self-contained (no cgo, no external BLAS) so
// the repository builds offline with the standard library only. Kernels are
// written for predictable cache behaviour: matrices are row-major and all
// hot loops stream along rows.
package mat

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"github.com/coded-computing/s2c2/internal/kernel"
)

// Dense is a row-major dense matrix of float64 values.
//
// The zero value is an empty (0x0) matrix. Use New or NewFromData to build
// one with a shape. Methods that return matrices always allocate fresh
// backing storage unless documented otherwise.
type Dense struct {
	rows, cols int
	// data holds the entries row-by-row; len(data) == rows*cols.
	data []float64
}

// New returns a zeroed r-by-c matrix on the Go heap: a caller's matrix
// has no release point, and views of it do not keep its header alive.
func New(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	return &Dense{rows: r, cols: c, data: make([]float64, r*c)}
}

// NewFromData wraps data (taking ownership) as an r-by-c matrix.
// len(data) must equal r*c.
func NewFromData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{rows: r, cols: c, data: data}
}

// NewFromRows builds a matrix from a slice of equal-length rows, copying.
func NewFromRows(rows [][]float64) *Dense {
	if len(rows) == 0 {
		return New(0, 0)
	}
	c := len(rows[0])
	m := New(len(rows), c)
	for i, row := range rows {
		if len(row) != c {
			panic(fmt.Sprintf("mat: ragged row %d: len %d want %d", i, len(row), c))
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m
}

// Rand returns an r-by-c matrix with entries drawn uniformly from [-1, 1)
// using the given deterministic source.
func Rand(r, c int, rng *rand.Rand) *Dense {
	m := New(r, c)
	for i := range m.data {
		m.data[i] = 2*rng.Float64() - 1
	}
	return m
}

// Dims reports the matrix shape.
func (m *Dense) Dims() (r, c int) { return m.rows, m.cols }

// Rows returns the row count.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the column count.
func (m *Dense) Cols() int { return m.cols }

// At returns the entry at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the entry at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Reshape resizes m to r×c in place, reusing its backing storage when it
// has room, so scratch matrices reshape per use without allocating once
// they have held their largest shape. Entries are unspecified afterwards.
//
//s2c2:noalloc
func (m *Dense) Reshape(r, c int) {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", r, c))
	}
	m.rows, m.cols = r, c
	m.data = kernel.Grow(m.data, r*c)
}

// Row returns row i as a slice aliasing the matrix storage.
// Mutating the returned slice mutates the matrix.
func (m *Dense) Row(i int) []float64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("mat: row %d out of range %d", i, m.rows))
	}
	return m.data[i*m.cols : (i+1)*m.cols]
}

// Data returns the backing slice (row-major). Mutations are visible.
func (m *Dense) Data() []float64 { return m.data }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	d := make([]float64, len(m.data))
	copy(d, m.data)
	return &Dense{rows: m.rows, cols: m.cols, data: d}
}

// Fill sets every entry to v.
func (m *Dense) Fill(v float64) {
	for i := range m.data {
		m.data[i] = v
	}
}

// Equal reports whether m and b have identical shape and entries.
func (m *Dense) Equal(b *Dense) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if v != b.data[i] {
			return false
		}
	}
	return true
}

// ApproxEqual reports whether m and b agree entrywise within tol,
// using a mixed absolute/relative comparison.
func (m *Dense) ApproxEqual(b *Dense, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i, v := range m.data {
		if !approxEqual(v, b.data[i], tol) {
			return false
		}
	}
	return true
}

func approxEqual(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

// String renders small matrices for debugging; large ones are summarised.
func (m *Dense) String() string {
	const limit = 8
	if m.rows > limit || m.cols > limit {
		return fmt.Sprintf("Dense{%dx%d}", m.rows, m.cols)
	}
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%.4g", m.At(i, j))
		}
		b.WriteString("]\n")
	}
	return b.String()
}
