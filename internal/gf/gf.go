// Package gf implements arithmetic over the prime field GF(p) with
// p = 2³¹ − 1 (the Mersenne prime 2147483647), plus the dense linear
// solvers the exact MDS codec needs.
//
// The float64 MDS codec in internal/coding is subject to rounding; this
// field gives a bit-exact backend so the "any k of n" MDS property can be
// property-tested without numerical tolerances, and offers an exact coding
// path for integer payloads.
package gf

import (
	"fmt"
	"unsafe"

	"github.com/coded-computing/s2c2/internal/kernel"
)

// P is the field modulus, the Mersenne prime 2³¹−1.
const P uint64 = 1<<31 - 1

// Elem is a field element in [0, P).
type Elem uint32

// New reduces an arbitrary uint64 into the field.
func New(v uint64) Elem { return Elem(v % P) }

// Add returns a+b mod P.
func Add(a, b Elem) Elem {
	s := uint64(a) + uint64(b)
	if s >= P {
		s -= P
	}
	return Elem(s)
}

// Sub returns a−b mod P.
func Sub(a, b Elem) Elem {
	if a >= b {
		return a - b
	}
	return Elem(uint64(a) + P - uint64(b))
}

// Neg returns −a mod P.
func Neg(a Elem) Elem {
	if a == 0 {
		return 0
	}
	return Elem(P - uint64(a))
}

// Mul returns a·b mod P using 64-bit intermediate arithmetic.
func Mul(a, b Elem) Elem {
	return Elem(uint64(a) * uint64(b) % P)
}

// Pow returns a^e mod P by square-and-multiply.
func Pow(a Elem, e uint64) Elem {
	result := Elem(1)
	base := a
	for e > 0 {
		if e&1 == 1 {
			result = Mul(result, base)
		}
		base = Mul(base, base)
		e >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of a. It panics on zero, which is
// a programming error everywhere this package is used.
func Inv(a Elem) Elem {
	if a == 0 {
		panic("gf: inverse of zero")
	}
	// Fermat: a^(P-2) mod P.
	return Pow(a, P-2)
}

// asU32 reinterprets a slice of field elements as raw uint32 lanes for the
// kernel layer (Elem is defined as uint32, so the layouts are identical).
func asU32(s []Elem) []uint32 {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&s[0])), len(s))
}

// AsUint32s reinterprets field elements as raw uint32 lanes without
// copying — the wire layer ships GF payloads as count-prefixed uint32s and
// this is the zero-copy bridge to it. The returned slice aliases s.
func AsUint32s(s []Elem) []uint32 { return asU32(s) }

// AsElems is the inverse view of AsUint32s: raw uint32 lanes seen as field
// elements, aliasing s. Values are NOT reduced mod P — callers that accept
// untrusted lanes must validate with Valid before using them in field
// arithmetic whose invariants assume canonical elements.
func AsElems(s []uint32) []Elem {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*Elem)(unsafe.Pointer(&s[0])), len(s))
}

// Valid reports whether every lane is a canonical field element in [0, P).
func Valid(s []Elem) bool {
	for _, v := range s {
		if uint64(v) >= P {
			return false
		}
	}
	return true
}

// Axpy computes dst[i] ← dst[i] + c·src[i] over the field — the
// mul-accumulate kernel of the coding layer's GF paths (MDS/Lagrange
// encode mixing, decode back-substitution). It dispatches through
// kernel.GFAxpyMod31: branch-light Mersenne folding instead of hardware
// divides on the portable backend, 4-lane folded vectors on the AVX2
// backend. Results are exactly the field operations' on every backend
// (this is modular arithmetic, not floating point).
//
//s2c2:noalloc
func Axpy(dst []Elem, c Elem, src []Elem) {
	if len(src) != len(dst) {
		panic(fmt.Sprintf("gf: Axpy length %d want %d", len(src), len(dst)))
	}
	if c == 0 {
		return
	}
	kernel.GFAxpyMod31(asU32(dst), uint32(c), asU32(src))
}

// Matrix is a dense matrix over GF(P) in row-major order.
type Matrix struct {
	rows, cols int
	data       []Elem
}

// NewMatrixFromData adopts data (row-major, length r·c) as the backing
// storage of an r-by-c matrix without copying.
func NewMatrixFromData(r, c int, data []Elem) *Matrix {
	if len(data) != r*c {
		panic(fmt.Sprintf("gf: NewMatrixFromData %dx%d with %d elements", r, c, len(data)))
	}
	return &Matrix{rows: r, cols: c, data: data}
}

// Reshape repoints m at data as an r-by-c row-major matrix without
// copying or allocating — for workspaces that rebuild a matrix view over
// reused scratch every round. The previous backing storage is released.
//
//s2c2:noalloc
func (m *Matrix) Reshape(r, c int, data []Elem) {
	if len(data) != r*c {
		panic(fmt.Sprintf("gf: Reshape %dx%d with %d elements", r, c, len(data)))
	}
	m.rows, m.cols, m.data = r, c, data
}

// Dims reports the shape.
func (m *Matrix) Dims() (int, int) { return m.rows, m.cols }

// At returns entry (i, j).
func (m *Matrix) At(i, j int) Elem { return m.data[i*m.cols+j] }

// Set assigns entry (i, j).
func (m *Matrix) Set(i, j int, v Elem) { m.data[i*m.cols+j] = v }

// Row returns row i, aliasing the backing storage.
func (m *Matrix) Row(i int) []Elem { return m.data[i*m.cols : (i+1)*m.cols] }

// Data returns the row-major backing storage, aliasing the matrix.
func (m *Matrix) Data() []Elem { return m.data }

// MulVecInto computes y = M·x over the field into the provided slice
// (length M.rows). It performs no allocation.
//
// The row reduction uses the same Mersenne folding as Axpy instead of
// per-element hardware divides: each 62-bit product is added to the
// accumulator and folded once via x ≡ (x >> 31) + (x & P) (mod P), which
// keeps the accumulator under 2³³ so the next product cannot overflow; a
// final fold plus one conditional subtract lands in [0, P).
//
//s2c2:noalloc
func (m *Matrix) MulVecInto(y, x []Elem) {
	if len(y) != m.rows {
		panic(fmt.Sprintf("gf: MulVec dst length %d want %d", len(y), m.rows))
	}
	m.MulVecRangeInto(y, x, 0, m.rows)
}

// MulVecRangeInto computes rows [lo, hi) of M·x into y (length hi−lo) —
// the worker-side kernel of the exact distributed round path, where a
// round assigns each worker a row range of its coded partition. It
// dispatches through kernel.GFMatVecMod31: the Mersenne accumulate-fold
// recurrence on the portable backend, folded 64-bit VPMULUDQ lanes on the
// AVX2 backend, with bit-exact results on every backend.
//
//s2c2:noalloc
func (m *Matrix) MulVecRangeInto(y, x []Elem, lo, hi int) {
	if len(x) != m.cols {
		panic(fmt.Sprintf("gf: MulVec length %d want %d", len(x), m.cols))
	}
	if lo < 0 || hi > m.rows || lo > hi {
		panic(fmt.Sprintf("gf: MulVecRange rows [%d,%d) outside [0,%d)", lo, hi, m.rows))
	}
	if len(y) != hi-lo {
		panic(fmt.Sprintf("gf: MulVecRange dst length %d want %d", len(y), hi-lo))
	}
	kernel.GFMatVecMod31(asU32(y), asU32(m.data), m.cols, asU32(x), lo, hi)
}

// MulVecBatchRangeInto computes rows [lo, hi) of M·[x_0 … x_{w-1}] for w
// x-vectors concatenated in xs (x_l at xs[l*cols : (l+1)*cols]) into y,
// row-major w-wide (y[(i-lo)*w+l] = (M·x_l)[i]): one sweep of the matrix
// serving all w vectors. Results are bit-exact equal to w MulVecRangeInto
// calls on every backend.
//
//s2c2:noalloc
func (m *Matrix) MulVecBatchRangeInto(y, xs []Elem, w, lo, hi int) {
	if w < 1 {
		panic(fmt.Sprintf("gf: MulVecBatchRange width %d", w))
	}
	if len(xs) != w*m.cols {
		panic(fmt.Sprintf("gf: MulVecBatchRange xs length %d want %d", len(xs), w*m.cols))
	}
	if lo < 0 || hi > m.rows || lo > hi {
		panic(fmt.Sprintf("gf: MulVecBatchRange rows [%d,%d) outside [0,%d)", lo, hi, m.rows))
	}
	if len(y) != (hi-lo)*w {
		panic(fmt.Sprintf("gf: MulVecBatchRange dst length %d want %d", len(y), (hi-lo)*w))
	}
	kernel.GFMatVecBatchMod31(asU32(y), asU32(m.data), m.cols, asU32(xs), w, lo, hi)
}

// InvertInto writes M⁻¹ into dst (n×n for an n×n M) and reports whether
// M is invertible; on false dst holds no meaningful value. One Gauss–Jordan
// elimination runs on a copy of M in scratch (at least n² elements), its
// row operations mirrored on dst, which starts as I — O(n³), the updates
// through the vectorized Axpy kernel. M is only read; neither dst nor
// scratch may alias it. Nothing is allocated, so a decode can invert a
// fresh system every band into workspace storage.
//
//s2c2:noalloc
func InvertInto(dst, m *Matrix, scratch []Elem) bool {
	n := m.rows
	if m.cols != n || dst.rows != n || dst.cols != n || len(scratch) < n*n {
		panic(fmt.Sprintf("gf: InvertInto %dx%d into %dx%d with %d scratch", m.rows, m.cols, dst.rows, dst.cols, len(scratch)))
	}
	a := scratch[:n*n]
	copy(a, m.data)
	clear(dst.data)
	for i := 0; i < n; i++ {
		dst.data[i*n+i] = 1
	}
	for col := 0; col < n; col++ {
		p := col
		for p < n && a[p*n+col] == 0 {
			p++
		}
		if p == n {
			return false
		}
		ac, dc := a[col*n:(col+1)*n], dst.Row(col)
		if p != col {
			// Rows at or below col are zero left of col in a, so its swap
			// starts at col; dst's rows swap whole.
			ap, dp := a[p*n:(p+1)*n], dst.Row(p)
			for j := col; j < n; j++ {
				ap[j], ac[j] = ac[j], ap[j]
			}
			for j := range dp {
				dp[j], dc[j] = dc[j], dp[j]
			}
		}
		inv := Inv(ac[col])
		for j := col; j < n; j++ {
			ac[j] = Mul(ac[j], inv)
		}
		for j := range dc {
			dc[j] = Mul(dc[j], inv)
		}
		for r := 0; r < n; r++ {
			f := a[r*n+col]
			if r == col || f == 0 {
				continue
			}
			// row r −= f·row col, as an axpy with the negated factor.
			Axpy(a[r*n+col:(r+1)*n], Neg(f), ac[col:])
			Axpy(dst.Row(r), Neg(f), dc)
		}
	}
	return true
}
