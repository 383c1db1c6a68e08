package coding

import (
	"errors"
	"fmt"

	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/mat"
)

// ErrInsufficient is returned when a row is covered by fewer worker
// results than the code requires.
var ErrInsufficient = errors.New("coding: insufficient results to decode")

// MDSCode is an (n,k) maximum-distance-separable code over float64 with a
// systematic generator: partitions 0..k-1 store the raw sub-matrices and
// partitions k..n-1 store Cauchy-coded parity, so any k of the n coded
// partitions reconstruct the original data.
//
// The Cauchy construction guarantees (in exact arithmetic) that every k×k
// submatrix of the generator is nonsingular. In float64 the decode systems
// are solved with partially pivoted LU plus one iterative-refinement step;
// for the (n,k) regimes used by the paper (n ≤ 50, n−k ≤ 10) reconstruction
// error stays near machine precision because at most n−k parity rows mix
// into any decode system.
type MDSCode struct {
	n, k int
	gen  *mat.Dense // n×k generator
	exec kernel.Exec
}

// NewMDSCode builds an (n,k) code. Requires 1 <= k <= n.
func NewMDSCode(n, k int) (*MDSCode, error) {
	if k < 1 || k > n {
		return nil, fmt.Errorf("coding: invalid MDS parameters n=%d k=%d", n, k)
	}
	gen := mat.New(n, k)
	for j := 0; j < k; j++ {
		gen.Set(j, j, 1)
	}
	// Parity rows: Cauchy matrix c[i][j] = 1/(x_i + y_j) with all x_i + y_j
	// distinct and nonzero. x_i = k + i, y_j = -j + 0.5 keeps every sum in
	// (0, n+k], distinct, and O(n), which bounds the dynamic range of the
	// decode systems.
	for i := k; i < n; i++ {
		for j := 0; j < k; j++ {
			x := float64(i) // i in [k, n)
			y := 0.5 - float64(j)
			gen.Set(i, j, 1/(x+y))
		}
	}
	return &MDSCode{n: n, k: k, gen: gen}, nil
}

// SetExec pins the code's parallel loops (encoding, today) to the given
// pool and fan-out. The zero Exec — the default — uses the shared kernel
// pool with full fan-out; co-tenant clusters in one process should give
// each code its own pool or a bounded MaxFan.
func (c *MDSCode) SetExec(e kernel.Exec) { c.exec = e }

// N returns the number of coded partitions.
func (c *MDSCode) N() int { return c.n }

// K returns the recovery threshold.
func (c *MDSCode) K() int { return c.k }

// GeneratorRow returns generator row i (the mixing coefficients of coded
// partition i over the k data blocks). The returned slice is a copy.
func (c *MDSCode) GeneratorRow(i int) []float64 {
	return mat.CloneVec(c.gen.Row(i))
}

// EncodedMatrix holds the n coded partitions of a data matrix A along with
// the bookkeeping needed to decode distributed products against it.
//
// The encoding borrows A: the code is systematic, so partitions 0..k-1 are
// capacity-capped views of A's own row blocks, not copies (only a block
// that runs past A's last row — rows % k != 0 — is copied and zero-padded).
// Mutating A therefore mutates the encoding's systematic partitions and
// stales its parity; re-encode (EncodeInto) after changing A, and keep A
// alive and unchanged for as long as the encoding is in use.
type EncodedMatrix struct {
	Code      *MDSCode
	OrigRows  int // rows of A before padding
	Cols      int
	BlockRows int          // rows per partition (= PaddedRows/k)
	Parts     []*mat.Dense // n coded partitions, each BlockRows×Cols

	pad []*mat.Dense // owned storage of zero-padded systematic blocks, by block
}

// Encode splits A into k row blocks (zero-padding the tail) and produces
// the n coded partitions Ã_i = Σ_j G[i][j]·A_j. The result borrows A (see
// EncodedMatrix).
func (c *MDSCode) Encode(a *mat.Dense) *EncodedMatrix {
	return c.EncodeInto(a, nil)
}

// EncodeInto is Encode reusing the parity storage of dst when its shape
// matches (the re-encode path of iterative jobs whose data matrix
// changes). dst == nil, or any shape mismatch, allocates fresh parity
// partitions. Either way the systematic partitions are re-pointed at a, so
// the result borrows a, not the matrix dst was encoded from.
func (c *MDSCode) EncodeInto(a *mat.Dense, dst *EncodedMatrix) *EncodedMatrix {
	rows, cols := a.Dims()
	blockRows := mat.PaddedRows(rows, c.k) / c.k
	if dst == nil || dst.Code != c || dst.BlockRows != blockRows || dst.Cols != cols {
		dst = &EncodedMatrix{
			Code:  c,
			Parts: make([]*mat.Dense, c.n),
			pad:   make([]*mat.Dense, c.k),
		}
		for i := c.k; i < c.n; i++ {
			dst.Parts[i] = mat.New(blockRows, cols)
		}
	}
	dst.OrigRows = rows
	dst.Cols = cols
	dst.BlockRows = blockRows
	src := a.Data()
	for j := 0; j < c.k; j++ {
		lo, hi := j*blockRows*cols, (j+1)*blockRows*cols
		if hi <= len(src) {
			// Capacity-capped, so nothing appended through the view can
			// reach the next block's rows.
			dst.Parts[j] = mat.NewFromData(blockRows, cols, src[lo:hi:hi])
			continue
		}
		// The block runs past A's last row: copy what A has, zero the rest,
		// into storage reused across re-encodes.
		if dst.pad[j] == nil {
			dst.pad[j] = mat.New(blockRows, cols)
		}
		data := dst.pad[j].Data()
		copied := copy(data, src[min(lo, len(src)):])
		kernel.Zero(data[copied:])
		dst.Parts[j] = dst.pad[j]
	}
	if c.n == c.k {
		return dst
	}
	// Band-split the parity sweeps across the pool: each participant owns a
	// disjoint row band [lo, hi) of every parity partition, so no two
	// goroutines ever write the same destination rows. The data blocks are
	// read in place through the systematic partitions.
	c.exec.For(blockRows, encodeChunk(c.n, c.k, cols), func(lo, hi int) {
		for i := c.k; i < c.n; i++ {
			band := dst.Parts[i].Data()[lo*cols : hi*cols]
			kernel.Zero(band)
			for j, g := range c.gen.Row(i) {
				kernel.Axpy(g, dst.Parts[j].Data()[lo*cols:hi*cols], band)
			}
		}
	})
	return dst
}

// encodeChunk sizes encode bands so each chunk is a cache-friendly amount
// of axpy work across all n partitions and k blocks, scaled to the active
// kernel backend's per-chunk flop target.
func encodeChunk(n, k, cols int) int {
	return kernel.ChunkRows(2 * n * k * cols)
}

// WorkerCompute runs the coded mat-vec kernel a worker executes: the rows
// [ranges] of Ã_w · x. It returns a Partial ready for the decoder.
func (e *EncodedMatrix) WorkerCompute(w int, x []float64, ranges []Range) *Partial {
	return e.WorkerComputeInto(w, x, ranges, nil)
}

// WorkerComputeInto is WorkerCompute reusing dst's backing storage
// (Ranges and Values are overwritten). dst == nil allocates a fresh
// Partial.
//
//s2c2:noalloc
func (e *EncodedMatrix) WorkerComputeInto(w int, x []float64, ranges []Range, dst *Partial) *Partial {
	if dst == nil {
		// Convenience fallback; hot callers pass a reused Partial.
		//s2c2:waive noalloc
		dst = &Partial{}
	}
	dst.Worker = w
	dst.RowWidth = 1
	dst.Ranges = AppendNormalizeRanges(dst.Ranges[:0], ranges)
	total := TotalRows(dst.Ranges)
	dst.Values = kernel.Grow(dst.Values, total)
	at := 0
	for _, r := range dst.Ranges {
		mat.MatVecRowsInto(e.Parts[w], x, dst.Values[at:at+r.Len()], r.Lo, r.Hi)
		at += r.Len()
	}
	return dst
}

// WorkerComputeBatchInto is WorkerComputeInto over w x-vectors
// concatenated in xs (x_l at xs[l*Cols : (l+1)*Cols]): one sweep of the
// assigned partition rows serves every lane through the batched kernel,
// and the Partial carries RowWidth = w with row-major w-wide Values
// (lane l of covered row r at Values[r*w+l], rows in range order).
//
//s2c2:noalloc
func (e *EncodedMatrix) WorkerComputeBatchInto(worker int, xs []float64, w int, ranges []Range, dst *Partial) *Partial {
	if dst == nil {
		// Convenience fallback; hot callers pass a reused Partial.
		//s2c2:waive noalloc
		dst = &Partial{}
	}
	dst.Worker = worker
	dst.RowWidth = w
	dst.Ranges = AppendNormalizeRanges(dst.Ranges[:0], ranges)
	total := TotalRows(dst.Ranges)
	dst.Values = kernel.Grow(dst.Values, total*w)
	at := 0
	part := e.Parts[worker]
	for _, r := range dst.Ranges {
		kernel.MatVecRangeBatch(dst.Values[at:at+r.Len()*w], part.Data(), e.Cols, xs, w, r.Lo, r.Hi)
		at += r.Len() * w
	}
	return dst
}

// decodeChunkLanes bounds the scratch of the band-wise float64 decode: a
// band is solved in pieces of at most this many right-hand-side lanes
// (rows × RowWidth), so the workspace holds at most 4·min(k, n−k)·
// decodeChunkLanes floats however long a band is. The solve is
// elementwise, so where a band is cut changes no bit.
const decodeChunkLanes = 2048

// DecodeWorkspace holds the reusable state of DecodeMatVec rounds: the
// band table, the per-band parity system and its factorization, and solve
// scratch. Nothing in it depends on which workers answered, so rounds
// whose worker sets churn reuse it without allocating. A workspace belongs
// to one EncodedMatrix and must not be shared between concurrent decodes.
type DecodeWorkspace struct {
	table   rowTable[float64]
	workers []int
	missing []int       // data blocks the band's systematic workers do not hold
	sys     mat.Dense   // the band's p×p parity system
	lu      mat.LU      // its factorization
	rhs     [][]float64 // per parity worker: its values less the known blocks' share
	res     [][]float64 // their residuals
	scratch []float64   // rhs, solution, residual and correction storage
	out     []float64
}

// NewDecodeWorkspace returns an empty workspace for decodes against e.
// A constructor allocates by definition; rounds reuse the workspace.
//
//s2c2:noalloc-waive
func (e *EncodedMatrix) NewDecodeWorkspace() *DecodeWorkspace {
	k := e.Code.k
	return &DecodeWorkspace{
		workers: make([]int, 0, k),
		out:     make([]float64, e.BlockRows*k),
	}
}

// DecodeMatVec reconstructs y = A·x (length OrigRows) from worker partials.
// Every partition row index must be covered by at least k workers.
func (e *EncodedMatrix) DecodeMatVec(partials []*Partial) ([]float64, error) {
	return e.DecodeMatVecInto(nil, partials, nil)
}

// DecodeMatVecInto is DecodeMatVec writing into dst (length OrigRows ×
// the partials' RowWidth; nil allocates it) using ws for all scratch
// state. Passing the same workspace across rounds makes the steady-state
// decode allocation-free, whichever workers answer.
//
// The decode is band-wise: rows between two consecutive range boundaries
// of the partials share one decode set (the first k workers in arrival
// order covering them), so each band is solved once over vectors of
// rows × RowWidth lanes read in place from the partials. The code is
// systematic, so a band's s systematic workers hand over their data
// blocks as they are (a copy); its p = k − s parity workers' values, less
// the known blocks' share, leave a p×p Cauchy system in the p missing
// blocks, factored per band and solved with one refinement step: a lane
// costs p·s + 3p² + p vector sweeps, and a band of systematic workers only
// (p = 0) is a copy. Every operation on
// a lane is elementwise, so a value depends only on its own row's decode
// set and inputs: lane l of a batched round is bit-identical to decoding
// that lane's partials alone, and splitting or duplicating partials that
// leave every row's set unchanged leaves every bit unchanged. dst is
// row-major RowWidth-wide (lane l of output row r at dst[r*w+l]).
//
//s2c2:noalloc
func (e *EncodedMatrix) DecodeMatVecInto(dst []float64, partials []*Partial, ws *DecodeWorkspace) ([]float64, error) {
	if ws == nil {
		ws = e.NewDecodeWorkspace()
	}
	k := e.Code.k
	if err := buildPartials(&ws.table, partials, e.BlockRows, k); err != nil {
		return nil, err
	}
	width := ws.table.rowWidth
	if width == 0 {
		width = 1 // no partials and no rows: nothing to size by
	}
	if dst != nil && len(dst) != e.OrigRows*width {
		return nil, fmt.Errorf("coding: decode dst length %d want %d", len(dst), e.OrigRows*width)
	}
	stride := e.BlockRows * width // data block j of row r at out[j*stride + r*width]
	ws.out = kernel.Grow(ws.out, k*stride)
	ws.rhs = kernel.GrowSlice(ws.rhs, k)
	ws.res = kernel.GrowSlice(ws.res, k)
	pieceRows := max(decodeChunkLanes/width, 1)
	for _, band := range ws.table.list {
		ws.workers = ws.table.workers(ws.workers, band)
		// Ascending, so the systematic workers (ids below k) come first.
		s := 0
		for s < k && ws.workers[s] < k {
			j := ws.workers[s]
			copy(ws.out[j*stride+band.lo*width:], ws.table.values(band, s, band.lo, band.hi))
			s++
		}
		if s == k {
			continue
		}
		// Sized for the largest parity system and piece there can be, so
		// no later band or round grows it.
		ws.scratch = kernel.Grow(ws.scratch, 4*min(k, e.Code.n-k)*min(pieceRows, e.BlockRows)*width)
		if err := ws.factorParity(e, s); err != nil {
			return nil, err
		}
		for lo := band.lo; lo < band.hi; lo += pieceRows {
			hi := min(lo+pieceRows, band.hi)
			ws.solvePiece(e, band, s, lo, hi, width)
		}
	}
	if dst == nil {
		// Convenience fallback; hot callers pass a reused dst.
		//s2c2:waive noalloc
		dst = make([]float64, e.OrigRows*width)
	}
	copy(dst, ws.out[:e.OrigRows*width])
	return dst, nil
}

// factorParity sets up the parity system of the band whose workers are
// ws.workers, the first s of them systematic: the missing data blocks, and
// the LU factorization of the p×p generator submatrix whose rows are the
// parity workers and whose columns are the missing blocks. Any square
// submatrix of a Cauchy matrix is nonsingular, so only float64 rounding
// can make it fail.
//
//s2c2:noalloc
func (ws *DecodeWorkspace) factorParity(e *EncodedMatrix, s int) error {
	k, p := e.Code.k, len(ws.workers)-s
	ws.missing = kernel.GrowInts(ws.missing, p)
	have, m := ws.workers[:s], 0
	for j := 0; j < k; j++ {
		if len(have) > 0 && have[0] == j {
			have = have[1:]
			continue
		}
		ws.missing[m] = j
		m++
	}
	ws.sys.Reshape(p, p)
	for i, w := range ws.workers[s:] {
		g, row := e.Code.gen.Row(w), ws.sys.Row(i)
		for c, j := range ws.missing {
			row[c] = g[j]
		}
	}
	if err := ws.lu.Factor(&ws.sys); err != nil {
		return fmt.Errorf("coding: decode set %v singular: %w", ws.workers, err)
	}
	return nil
}

// solvePiece decodes rows [lo, hi) of band b's missing blocks into ws.out:
// each parity value less the known blocks' share is the right-hand side of
// the factored parity system, solved for all m = (hi−lo)·width lanes at
// once — LU solve plus one iterative-refinement sweep, the same arithmetic
// per lane as a scalar solve, run as whole-vector sweeps.
//
//s2c2:noalloc
func (ws *DecodeWorkspace) solvePiece(e *EncodedMatrix, b rowBand, s, lo, hi, width int) {
	p, m := len(ws.missing), (hi-lo)*width
	// Data block j of rows [lo, hi) is out[j*stride+at : j*stride+at+m].
	stride, at := e.BlockRows*width, lo*width
	buf := ws.scratch[:4*p*m]
	y, dx := buf[p*m:2*p*m], buf[3*p*m:]
	for i, w := range ws.workers[s:] {
		bi := buf[i*m : (i+1)*m]
		copy(bi, ws.table.values(b, s+i, lo, hi))
		g := e.Code.gen.Row(w)
		for _, j := range ws.workers[:s] {
			kernel.Axpy(-g[j], ws.out[j*stride+at:j*stride+at+m], bi)
		}
		ws.rhs[i] = bi
		ws.res[i] = buf[(2*p+i)*m : (2*p+i+1)*m]
	}
	rhs, res := ws.rhs[:p], ws.res[:p]
	ws.lu.SolveLanesInto(y, m, rhs)
	for i, ri := range res {
		copy(ri, rhs[i])
		for t, c := range ws.sys.Row(i) {
			kernel.Axpy(-c, y[t*m:(t+1)*m], ri)
		}
	}
	ws.lu.SolveLanesInto(dx, m, res)
	for t, j := range ws.missing {
		out := ws.out[j*stride+at : j*stride+at+m]
		copy(out, y[t*m:(t+1)*m])
		kernel.Axpy(1, dx[t*m:(t+1)*m], out)
	}
}
