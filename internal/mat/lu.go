package mat

import (
	"errors"
	"fmt"
	"math"

	"github.com/coded-computing/s2c2/internal/kernel"
)

// ErrSingular is returned when a linear system has no usable pivot.
var ErrSingular = errors.New("mat: matrix is singular to working precision")

// LU holds an LU factorization with partial pivoting of a square matrix:
// P·A = L·U, stored compactly in lu with the permutation in piv. The zero
// value is an empty factorization ready for Factor.
type LU struct {
	lu  Dense
	piv []int
}

// Factor computes the LU factorization of square A with partial pivoting
// into f, reusing f's storage: a factorization that has once held an n×n
// system factors any system up to n×n without allocating, so a decoder
// can factor a fresh small system per band. On ErrSingular f holds no
// usable factorization.
//
//s2c2:noalloc
func (f *LU) Factor(a *Dense) error {
	if a.rows != a.cols {
		panic(fmt.Sprintf("mat: LU.Factor non-square %dx%d", a.rows, a.cols))
	}
	n := a.rows
	lu := &f.lu
	lu.Reshape(n, n)
	copy(lu.data, a.data)
	f.piv = kernel.GrowInts(f.piv, n)
	piv := f.piv
	for i := range piv {
		piv[i] = i
	}
	for col := 0; col < n; col++ {
		// Find the pivot: largest magnitude in this column at/below the diagonal.
		p := col
		max := math.Abs(lu.data[col*n+col])
		for r := col + 1; r < n; r++ {
			if a := math.Abs(lu.data[r*n+col]); a > max {
				max, p = a, r
			}
		}
		if max == 0 {
			return ErrSingular
		}
		if p != col {
			rp := lu.data[p*n : (p+1)*n]
			rc := lu.data[col*n : (col+1)*n]
			for j := 0; j < n; j++ {
				rp[j], rc[j] = rc[j], rp[j]
			}
			piv[p], piv[col] = piv[col], piv[p]
		}
		pivVal := lu.data[col*n+col]
		for r := col + 1; r < n; r++ {
			l := lu.data[r*n+col] / pivVal
			lu.data[r*n+col] = l
			if l == 0 {
				continue
			}
			rr := lu.data[r*n : (r+1)*n]
			rc := lu.data[col*n : (col+1)*n]
			for j := col + 1; j < n; j++ {
				rr[j] -= l * rc[j]
			}
		}
	}
	return nil
}

// SolveInto solves A·x = b into the provided slice x, which must not
// alias b. Both must have length N (the factored dimension). It performs
// no allocation.
//
//s2c2:noalloc
func (f *LU) SolveInto(x, b []float64) {
	n := f.lu.rows
	if len(b) != n || len(x) != n {
		panic(fmt.Sprintf("mat: LU.SolveInto lengths x=%d b=%d want %d", len(x), len(b), n))
	}
	// Apply permutation.
	for i, p := range f.piv {
		x[i] = b[p]
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		row := f.lu.data[i*n : i*n+i]
		s := x[i]
		for j, v := range row {
			s -= v * x[j]
		}
		x[i] = s
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		row := f.lu.data[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		x[i] = s / row[i]
	}
}

// SolveLanesInto solves A·X = B for m right-hand sides at once, every
// unknown held as a length-m vector: b[i] is row i of B (the i-th
// equation's m right-hand values) and row i of the solution lands in
// x[i*stride : i*stride+m]. The substitutions are SolveInto's, run as
// whole-vector kernel.Axpy updates with the division by the pivot as a
// kernel.Scale by its reciprocal, so the cost is N² vector sweeps however
// large m is. Both kernels are elementwise and position-independent:
// splitting the m lanes over several calls, anywhere, yields the same
// bits. x must not alias any b[i]. It performs no allocation.
//
//s2c2:noalloc
func (f *LU) SolveLanesInto(x []float64, stride int, b [][]float64) {
	n := f.lu.rows
	if len(b) != n {
		panic(fmt.Sprintf("mat: LU.SolveLanesInto has %d right-hand rows, want %d", len(b), n))
	}
	m := len(b[0])
	for i, p := range f.piv {
		copy(x[i*stride:i*stride+m], b[p])
	}
	// Forward substitution with unit-diagonal L.
	for i := 1; i < n; i++ {
		xi := x[i*stride : i*stride+m]
		for j, v := range f.lu.data[i*n : i*n+i] {
			kernel.Axpy(-v, x[j*stride:j*stride+m], xi)
		}
	}
	// Back substitution with U.
	for i := n - 1; i >= 0; i-- {
		xi := x[i*stride : i*stride+m]
		u := f.lu.data[i*n : (i+1)*n]
		for j := i + 1; j < n; j++ {
			kernel.Axpy(-u[j], x[j*stride:j*stride+m], xi)
		}
		kernel.Scale(1/u[i], xi)
	}
}
