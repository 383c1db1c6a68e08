package coding

import (
	"fmt"
	"math"

	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/mat"
)

// PolyCode implements polynomial codes (Yu, Maddah-Ali, Avestimehr,
// NIPS'17) for bilinear computations of the form Aᵀ·diag(d)·B, the Hessian
// workload of the paper (§5, §7.2.3).
//
// A (m×dA) is split into a column blocks and B (m×dB) into b column
// blocks. Worker i receives the encoded partitions
//
//	Ã_i = Σ_j α_i^j     A_j
//	B̃_i = Σ_l α_i^(a·l) B_l
//
// and computes P_i = Ã_iᵀ·diag(d)·B̃_i, which is the evaluation at α_i of a
// matrix polynomial of degree a·b−1 whose coefficients are exactly the
// blocks H_(j,l) = A_jᵀ·diag(d)·B_l. Any a·b of the n evaluations decode
// the full product by interpolation — and, as with MDS, any individual
// *row* of P_i decodes independently, which is what lets S2C2 assign
// partial work per worker.
type PolyCode struct {
	a, b, n int
	alphas  []float64
	exec    kernel.Exec
}

// NewPolyCode builds a polynomial code with n workers and an a×b block
// grid. Requires a·b <= n. Evaluation points are Chebyshev nodes in
// (−1, 1) for well-conditioned float64 interpolation.
func NewPolyCode(n, a, b int) (*PolyCode, error) {
	if a < 1 || b < 1 || a*b > n {
		return nil, fmt.Errorf("coding: invalid polynomial code n=%d a=%d b=%d (need a·b <= n)", n, a, b)
	}
	alphas := make([]float64, n)
	for i := range alphas {
		alphas[i] = math.Cos(math.Pi * (2*float64(i) + 1) / (2 * float64(n)))
	}
	return &PolyCode{a: a, b: b, n: n, alphas: alphas}, nil
}

// SetExec pins the code's parallel encode loops to the given pool and
// fan-out; the zero Exec uses the shared kernel pool with full fan-out.
func (c *PolyCode) SetExec(e kernel.Exec) { c.exec = e }

// N returns the number of workers the code targets.
func (c *PolyCode) N() int { return c.n }

// RecoveryThreshold returns a·b, the number of worker evaluations needed
// per output row.
func (c *PolyCode) RecoveryThreshold() int { return c.a * c.b }

// EncodedBilinear holds the per-worker encoded partitions for a bilinear
// computation Aᵀ·diag(d)·B.
type EncodedBilinear struct {
	Code                   *PolyCode
	RowsM                  int // shared row count of A and B
	ColsA, ColsB           int // original column counts
	BlockColsA, BlockColsB int // per-block (padded) column counts
	PartsA, PartsB         []*mat.Dense
}

// EncodeBilinear encodes A and B for the bilinear product Aᵀ·diag(d)·B.
// A and B must share their row count.
func (c *PolyCode) EncodeBilinear(a, b *mat.Dense) (*EncodedBilinear, error) {
	if a.Rows() != b.Rows() {
		return nil, fmt.Errorf("coding: EncodeBilinear row mismatch %d vs %d", a.Rows(), b.Rows())
	}
	blocksA := mat.SplitCols(a, c.a)
	blocksB := mat.SplitCols(b, c.b)
	e := &EncodedBilinear{
		Code:       c,
		RowsM:      a.Rows(),
		ColsA:      a.Cols(),
		ColsB:      b.Cols(),
		BlockColsA: blocksA[0].Cols(),
		BlockColsB: blocksB[0].Cols(),
		PartsA:     make([]*mat.Dense, c.n),
		PartsB:     make([]*mat.Dense, c.n),
	}
	for i := 0; i < c.n; i++ {
		e.PartsA[i] = mat.New(a.Rows(), e.BlockColsA)
		e.PartsB[i] = mat.New(b.Rows(), e.BlockColsB)
	}
	// Band-split the encode over the shared row dimension: a participant
	// owns rows [lo, hi) of every encoded partition, A-side and B-side.
	rows := a.Rows()
	bcA, bcB := e.BlockColsA, e.BlockColsB
	c.exec.For(rows, encodeChunk(c.n, c.a+c.b, bcA+bcB), func(lo, hi int) {
		for i := 0; i < c.n; i++ {
			pa := e.PartsA[i].Data()[lo*bcA : hi*bcA]
			coeff := 1.0
			for j := 0; j < c.a; j++ {
				kernel.Axpy(coeff, blocksA[j].Data()[lo*bcA:hi*bcA], pa)
				coeff *= c.alphas[i]
			}
			pb := e.PartsB[i].Data()[lo*bcB : hi*bcB]
			alphaToA := math.Pow(c.alphas[i], float64(c.a))
			coeff = 1.0
			for l := 0; l < c.b; l++ {
				kernel.Axpy(coeff, blocksB[l].Data()[lo*bcB:hi*bcB], pb)
				coeff *= alphaToA
			}
		}
	})
	return e, nil
}

// EncodeHessian is EncodeBilinear(A, A): the Hessian form Aᵀ·diag(d)·A.
func (c *PolyCode) EncodeHessian(a *mat.Dense) (*EncodedBilinear, error) {
	if c.a != c.b {
		return nil, fmt.Errorf("coding: EncodeHessian requires a == b, have %d×%d", c.a, c.b)
	}
	return c.EncodeBilinear(a, a)
}

// WorkerCompute runs worker w's kernel on rows [ranges) of its product
// block P_w = Ã_wᵀ·diag(d)·B̃_w. Row r of P_w depends on column r of Ã_w.
func (e *EncodedBilinear) WorkerCompute(w int, d []float64, ranges []Range) *Partial {
	return e.WorkerComputeInto(w, d, ranges, nil)
}

// WorkerComputeInto is WorkerCompute reusing dst's backing storage.
// dst == nil allocates a fresh Partial.
//
//s2c2:noalloc
func (e *EncodedBilinear) WorkerComputeInto(w int, d []float64, ranges []Range, dst *Partial) *Partial {
	if dst == nil {
		// Convenience fallback; hot callers pass a reused Partial.
		//s2c2:waive noalloc
		dst = &Partial{}
	}
	dst.Worker = w
	dst.RowWidth = e.BlockColsB
	dst.Ranges = AppendNormalizeRanges(dst.Ranges[:0], ranges)
	dst.Values = kernel.Grow(dst.Values, TotalRows(dst.Ranges)*e.BlockColsB)
	at := 0
	for _, r := range dst.Ranges {
		n := r.Len() * e.BlockColsB
		mat.ATDiagBRowsInto(e.PartsA[w], d, e.PartsB[w], r.Lo, r.Hi, dst.Values[at:at+n])
		at += n
	}
	return dst
}

// PolyDecodeWorkspace holds reusable decode state for one EncodedBilinear:
// the row-index table, every band's Vandermonde inverse and scratch. It
// keeps nothing per worker set, so rounds whose responding sets churn
// decode without allocating once the storage has grown to the largest
// band count seen. Not safe for concurrent decodes.
type PolyDecodeWorkspace struct {
	table   rowTable[float64]
	workers []int
	invs    []float64 // band bi's a·b × a·b inverse at [bi·(ab)², (bi+1)·(ab)²)
}

// NewDecodeWorkspace returns an empty decode workspace for e.
func (e *EncodedBilinear) NewDecodeWorkspace() *PolyDecodeWorkspace {
	ab := e.Code.a * e.Code.b
	return &PolyDecodeWorkspace{workers: make([]int, 0, ab)}
}

// Decode reconstructs H = Aᵀ·diag(d)·B (ColsA×ColsB) from worker partials.
// Every row index in [0, BlockColsA) must be covered by at least a·b
// workers.
func (e *EncodedBilinear) Decode(partials []*Partial) (*mat.Dense, error) {
	return e.DecodeInto(nil, partials, nil)
}

// DecodeInto is Decode writing into dst (ColsA×ColsB; nil allocates it),
// reusing ws across rounds: each band's interpolation inverse is computed
// afresh into ws's storage and index storage is recycled, so a steady-state
// decode allocates nothing however the worker sets move.
func (e *EncodedBilinear) DecodeInto(dst *mat.Dense, partials []*Partial, ws *PolyDecodeWorkspace) (*mat.Dense, error) {
	c := e.Code
	ab := c.a * c.b
	if ws == nil {
		ws = e.NewDecodeWorkspace()
	}
	if err := buildPartials(&ws.table, partials, e.BlockColsA, ab); err != nil {
		return nil, err
	}
	if ws.table.rowWidth != 0 && ws.table.rowWidth != e.BlockColsB {
		return nil, fmt.Errorf("coding: Decode expects RowWidth %d, got %d", e.BlockColsB, ws.table.rowWidth)
	}
	out := dst
	if out == nil {
		out = mat.New(e.ColsA, e.ColsB)
	} else {
		if r, cc := out.Dims(); r != e.ColsA || cc != e.ColsB {
			return nil, fmt.Errorf("coding: decode dst %dx%d want %dx%d", r, cc, e.ColsA, e.ColsB)
		}
		out.Fill(0)
	}
	// The table's bands are runs of rows sharing one worker set; scatter
	// coefficients band-wise: for a fixed (coefficient, worker) pair the
	// inner loop streams the worker's values for the band sequentially and
	// writes consecutive output rows, instead of the cache-hostile
	// row-at-a-time interleaving of all workers.
	//
	// Invert every band's interpolation system up front, serially (the
	// workers scratch is shared), leaving the scatter below read-only
	// shared state.
	bands := ws.table.list
	sq := ab * ab
	ws.invs = kernel.Grow(ws.invs, len(bands)*sq)
	for bi, band := range bands {
		ws.workers = ws.table.workers(ws.workers, band)
		vandermondeInverseInto(ws.invs[bi*sq:(bi+1)*sq], c.alphas, ws.workers)
	}
	// Bands write disjoint output rows (a global row j·BlockColsA+row
	// determines (j, row) uniquely, and each band owns its row window),
	// so they fan out on the code's pool once the decode is big enough to
	// amortize dispatch; small decodes stay serial.
	if e.decodeFlops() >= polyParallelMinFlops {
		e.Code.exec.For(len(bands), 1, func(lo, hi int) {
			for bi := lo; bi < hi; bi++ {
				e.scatterBand(ws, bi, out)
			}
		})
	} else {
		for bi := range bands {
			e.scatterBand(ws, bi, out)
		}
	}
	return out, nil
}

// polyParallelMinFlops gates the decode scatter's fan-out: below it, pool
// dispatch overhead outweighs the win and segments run serially.
const polyParallelMinFlops = 128 << 10

// decodeFlops estimates the scatter work of one full decode (2 flops per
// accumulated value across ab coefficients × ab workers per row).
func (e *EncodedBilinear) decodeFlops() int {
	ab := e.Code.a * e.Code.b
	return 2 * e.BlockColsA * ab * ab * e.BlockColsB
}

// scatterBand accumulates one band's rows into the output:
// coeffs[exp] = Σ_i inv[exp][i] · rowvals_i, one BlockColsB-wide vector
// per polynomial coefficient exp = j + a·l. Distinct bands touch disjoint
// output rows, so concurrent calls never conflict.
func (e *EncodedBilinear) scatterBand(ws *PolyDecodeWorkspace, bi int, out *mat.Dense) {
	c := e.Code
	ab := c.a * c.b
	band := ws.table.list[bi]
	inv := ws.invs[bi*ab*ab : (bi+1)*ab*ab]
	for exp := 0; exp < ab; exp++ {
		j := exp % c.a
		l := exp / c.a
		// Rows whose global output row j·BlockColsA+row falls into A's
		// padding decode to nothing; clip once per (band, exp).
		rowHi := e.ColsA - j*e.BlockColsA
		if rowHi > band.hi {
			rowHi = band.hi
		}
		if rowHi <= band.lo {
			continue
		}
		dstBase := l * e.BlockColsB
		width := e.ColsB - dstBase // clip B's padding columns
		if width > e.BlockColsB {
			width = e.BlockColsB
		}
		if width <= 0 {
			continue
		}
		for i := 0; i < ab; i++ {
			f := inv[exp*ab+i]
			if f == 0 {
				continue
			}
			vals := ws.table.values(band, i, band.lo, rowHi)
			for row := band.lo; row < rowHi; row++ {
				src := vals[(row-band.lo)*e.BlockColsB:][:width]
				kernel.Axpy(f, src, out.Row(j*e.BlockColsA + row)[dstBase:dstBase+width])
			}
		}
	}
}

// vandermondeInverseInto writes V⁻¹ into inv (row-major, inv[exp·m+i])
// for the m × m Vandermonde system V[i][exp] = x_iᵉˣᵖ of the nodes
// x_i = alphas[workers[i]], m = len(workers). Row exp of V⁻¹ solves
// Vᵀ·z = e_exp, a primal Vandermonde system, which Björck–Pereyra
// (Math. Comp. 24, 1970) solves in O(m²) with no pivoting: a Newton-form
// elimination, then back substitution through the divided-difference
// denominators. The code's nodes are distinct, so no divisor is zero. Its
// worst decode error over every decode set stays within 2× of an
// LU-inverted system's (TestPolyDecodeAccuracyMatchesLU); the
// interpolation-form algorithm run on columns reaches 3–7×.
//
//s2c2:noalloc
func vandermondeInverseInto(inv, alphas []float64, workers []int) {
	m := len(workers)
	clear(inv[:m*m])
	for exp := 0; exp < m; exp++ {
		z := inv[exp*m : (exp+1)*m]
		z[exp] = 1
		for k := 0; k < m-1; k++ {
			xk := alphas[workers[k]]
			for i := m - 1; i > k; i-- {
				z[i] -= xk * z[i-1]
			}
		}
		for k := m - 2; k >= 0; k-- {
			for i := k + 1; i < m; i++ {
				z[i] /= alphas[workers[i]] - alphas[workers[i-k-1]]
			}
			for i := k; i < m-1; i++ {
				z[i] -= z[i+1]
			}
		}
	}
}
