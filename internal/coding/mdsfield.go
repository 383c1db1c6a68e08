package coding

import (
	"fmt"

	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/mat"
)

// MDSCode is the (n,k) systematic MDS code over float64 (mdsCode), its
// parity systems solved by pivoted LU plus one refinement step. The error
// grows with a band's p parity workers: < 1e-12 relative for p ≤ 3, ~1e-7
// at p = 8 (n ≤ 16).
type MDSCode struct {
	mdsCode[float64, *mat.Dense, floatField]
}

// EncodedMatrix is a float64 encoding; it borrows A (see encoded).
type EncodedMatrix = encoded[float64, *mat.Dense, floatField]

// DecodeWorkspace is the reusable state of float64 decode rounds.
type DecodeWorkspace = decodeWorkspace[float64]

// NewMDSCode builds an (n,k) code. Requires 1 <= k <= n.
func NewMDSCode(n, k int) (*MDSCode, error) {
	c, err := newMDSCode[float64, *mat.Dense, floatField](n, k)
	return &MDSCode{c}, err
}

// Encode splits A into k row blocks (zero-padding the tail) and produces
// the n coded partitions Ã_i = Σ_j G[i][j]·A_j. The result borrows A.
func (c *MDSCode) Encode(a *mat.Dense) *EncodedMatrix { return c.EncodeInto(a, nil) }

// EncodeInto is Encode reusing dst's parity storage when its shape
// matches (dst == nil, or a mismatch, allocates): the re-encode path of
// iterative jobs whose data matrix changes.
func (c *MDSCode) EncodeInto(a *mat.Dense, dst *EncodedMatrix) *EncodedMatrix {
	rows, cols := a.Dims()
	return c.encodeInto(rows, cols, a.Data(), dst)
}

// floatField's parity is c[i][j] = 1/(x_i + y_j), x_i = i, y_j = 0.5 − j:
// every sum is distinct, nonzero and O(n), bounding the systems' range.
type floatField struct{}

func (floatField) cauchy(i, j int) float64                      { return 1 / (float64(i) + (0.5 - float64(j))) }
func (floatField) axpy(dst []float64, g float64, src []float64) { kernel.Axpy(g, src, dst) }
func (floatField) wrap(r, c int, data []float64) *mat.Dense     { return mat.NewFromData(r, c, data) }
func (floatField) solver() paritySolver[float64]                { return &luSolver{} }

// alloc's storage goes once the header is unreachable (kernel.Own).
func (floatField) alloc(r, c int) *mat.Dense {
	return kernel.Own(r*c, func(d []float64) *mat.Dense { return mat.NewFromData(r, c, d) })
}

// sweep keeps the single-x kernel apart: the batched one rounds
// differently on the vector backends, even at w = 1.
//
//s2c2:noalloc
func (floatField) sweep(dst, a []float64, cols int, xs []float64, w int, batch bool, lo, hi int) {
	if batch {
		kernel.MatVecRangeBatch(dst, a, cols, xs, w, lo, hi)
	} else {
		kernel.MatVecRange(dst, a, cols, xs, lo, hi)
	}
}

// luSolver factors a band's system; scratch holds a piece's vectors.
type luSolver struct {
	sys      mat.Dense
	lu       mat.LU
	rhs, res [][]float64
	scratch  []float64
}

//s2c2:noalloc
func (f *luSolver) setup(ws *decodeWorkspace[float64], q, lanes int) bool {
	p := len(ws.missing)
	f.scratch = kernel.Grow(f.scratch, 4*q*lanes)
	f.rhs, f.res = kernel.GrowSlice(f.rhs, q), kernel.GrowSlice(f.res, q)
	f.sys.Reshape(p, p)
	copy(f.sys.Data(), ws.sys)
	return f.lu.Factor(&f.sys) == nil
}

// solvePiece runs a scalar solve's arithmetic (LU solve, one refinement)
// as vector sweeps over all m lanes, p·s + 3p² + p of them.
//
//s2c2:noalloc
func (f *luSolver) solvePiece(ws *decodeWorkspace[float64], b rowBand, lo, hi, width, stride int) {
	p, m, at := len(ws.missing), (hi-lo)*width, lo*width
	s := len(ws.workers) - p
	buf := f.scratch[:4*p*m]
	y, dx := buf[p*m:2*p*m], buf[3*p*m:]
	for i := range p {
		bi := buf[i*m : (i+1)*m]
		copy(bi, ws.table.values(b, s+i, lo, hi))
		for c, j := range ws.workers[:s] {
			kernel.Axpy(-ws.known[i*s+c], ws.out[j*stride+at:j*stride+at+m], bi)
		}
		f.rhs[i], f.res[i] = bi, buf[(2*p+i)*m:(2*p+i+1)*m]
	}
	rhs, res := f.rhs[:p], f.res[:p]
	f.lu.SolveLanesInto(y, m, rhs)
	for i, ri := range res {
		copy(ri, rhs[i])
		for t, c := range ws.sys[i*p : (i+1)*p] {
			kernel.Axpy(-c, y[t*m:(t+1)*m], ri)
		}
	}
	f.lu.SolveLanesInto(dx, m, res)
	for t, j := range ws.missing {
		out := ws.out[j*stride+at : j*stride+at+m]
		copy(out, y[t*m:(t+1)*m])
		kernel.Axpy(1, dx[t*m:(t+1)*m], out)
	}
}

// GFMDSCode is the (n,k) systematic MDS code over GF(2³¹−1) (mdsCode):
// decoding is bit-exact, an exact path for integer payloads.
type GFMDSCode struct {
	mdsCode[gf.Elem, *gf.Matrix, gfField]
}

// GFEncodedMatrix is a GF(2³¹−1) encoding; it borrows its data.
type GFEncodedMatrix = encoded[gf.Elem, *gf.Matrix, gfField]

// GFDecodeWorkspace is the reusable state of exact decode rounds.
type GFDecodeWorkspace = decodeWorkspace[gf.Elem]

// NewGFMDSCode builds an exact (n,k) code. Requires 1 <= k <= n.
func NewGFMDSCode(n, k int) (*GFMDSCode, error) {
	c, err := newMDSCode[gf.Elem, *gf.Matrix, gfField](n, k)
	return &GFMDSCode{c}, err
}

// Encode splits the rows×cols row-major data into k row blocks, padding
// with zeros, and emits the n coded partitions. The result borrows data.
func (c *GFMDSCode) Encode(rows, cols int, data []gf.Elem) (*GFEncodedMatrix, error) {
	return c.EncodeInto(rows, cols, data, nil)
}

// EncodeInto is Encode reusing dst's parity storage (MDSCode.EncodeInto).
func (c *GFMDSCode) EncodeInto(rows, cols int, data []gf.Elem, dst *GFEncodedMatrix) (*GFEncodedMatrix, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("coding: data length %d want %d", len(data), rows*cols)
	}
	return c.encodeInto(rows, cols, data, dst), nil
}

// gfField's parity is C[i][j] = 1/(x_i − y_j), x_i = i ∈ [k, n),
// y_j = j ∈ [0, k): disjoint point sets, so every entry is defined.
type gfField struct{}

func (gfField) cauchy(i, j int) gf.Elem                      { return gf.Inv(gf.Elem(i - j)) }
func (gfField) axpy(dst []gf.Elem, g gf.Elem, src []gf.Elem) { gf.Axpy(dst, g, src) }
func (gfField) wrap(r, c int, data []gf.Elem) *gf.Matrix     { return gf.NewMatrixFromData(r, c, data) }
func (gfField) solver() paritySolver[gf.Elem]                { return &gfSolver{} }
func (gfField) alloc(r, c int) *gf.Matrix {
	return kernel.Own(r*c, func(d []gf.Elem) *gf.Matrix { return gf.NewMatrixFromData(r, c, d) })
}

//s2c2:noalloc
func (gfField) sweep(dst, a []gf.Elem, cols int, xs []gf.Elem, w int, batch bool, lo, hi int) {
	d, m, x := gf.AsUint32s(dst), gf.AsUint32s(a), gf.AsUint32s(xs)
	if batch {
		kernel.GFMatVecBatchMod31(d, m, cols, x, w, lo, hi)
	} else {
		kernel.GFMatVecMod31(d, m, cols, x, lo, hi)
	}
}

// gfSolver inverts a band's system and folds the known blocks through it.
type gfSolver struct {
	sys, inv gf.Matrix
	fold     []gf.Elem // p×s: −(inv · known)
	coef     []gf.Elem // storage of inv, fold and the inversion scratch
}

//s2c2:noalloc
func (g *gfSolver) setup(ws *decodeWorkspace[gf.Elem], q, _ int) bool {
	k, p := len(ws.workers), len(ws.missing)
	g.coef = kernel.GrowSlice(g.coef, q*(2*q+k))
	g.sys.Reshape(p, p, ws.sys)
	g.inv.Reshape(p, p, g.coef[:p*p])
	if !gf.InvertInto(&g.inv, &g.sys, g.coef[p*p:2*p*p]) {
		return false
	}
	// Missing block t = Σ_i inv[t][i]·(v_i − Σ_c known[i][c]·block c)
	// = Σ_i inv[t][i]·v_i + Σ_c fold[t][c]·block c.
	s := k - p
	g.fold = g.coef[2*p*p : 2*p*p+p*s]
	for t := range p {
		for c := range s {
			var acc gf.Elem
			for i := range p {
				acc = gf.Add(acc, gf.Mul(g.inv.At(t, i), ws.known[i*s+c]))
			}
			g.fold[t*s+c] = gf.Neg(acc)
		}
	}
	return true
}

// solvePiece writes each missing block as the inverse's combination of
// the parity values plus the folded known blocks: p + s sweeps.
//
//s2c2:noalloc
func (g *gfSolver) solvePiece(ws *decodeWorkspace[gf.Elem], b rowBand, lo, hi, width, stride int) {
	p, m, at := len(ws.missing), (hi-lo)*width, lo*width
	s := len(ws.workers) - p
	for t, j := range ws.missing {
		out := ws.out[j*stride+at : j*stride+at+m]
		clear(out)
		for i, c := range g.inv.Row(t) {
			gf.Axpy(out, c, ws.table.values(b, s+i, lo, hi))
		}
		for c, known := range ws.workers[:s] {
			gf.Axpy(out, g.fold[t*s+c], ws.out[known*stride+at:known*stride+at+m])
		}
	}
}
