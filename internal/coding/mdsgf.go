package coding

import (
	"fmt"

	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/kernel"
)

// GFMDSCode is the exact (n,k) MDS code over GF(2³¹−1). Its generator is a
// Vandermonde matrix with distinct evaluation points, so any k rows are
// provably invertible and decoding is bit-exact. It backs property tests
// and offers an exact coding path for integer payloads.
type GFMDSCode struct {
	n, k int
	gen  *gf.Matrix // n×k Vandermonde
	exec kernel.Exec
}

// NewGFMDSCode builds an exact (n,k) code.
func NewGFMDSCode(n, k int) (*GFMDSCode, error) {
	if k < 1 || k > n {
		return nil, fmt.Errorf("coding: invalid GF MDS parameters n=%d k=%d", n, k)
	}
	xs := make([]gf.Elem, n)
	for i := range xs {
		xs[i] = gf.Elem(i + 1) // distinct nonzero points
	}
	return &GFMDSCode{n: n, k: k, gen: gf.Vandermonde(xs, k)}, nil
}

// SetExec pins the code's parallel encode loops to the given pool and
// fan-out; the zero Exec uses the shared kernel pool with full fan-out.
func (c *GFMDSCode) SetExec(e kernel.Exec) { c.exec = e }

// N returns the number of coded partitions.
func (c *GFMDSCode) N() int { return c.n }

// K returns the recovery threshold.
func (c *GFMDSCode) K() int { return c.k }

// GFEncodedMatrix holds the coded partitions of a field-valued matrix,
// stored as n slices of row-major blocks.
type GFEncodedMatrix struct {
	Code      *GFMDSCode
	OrigRows  int
	Cols      int
	BlockRows int
	Parts     []*gf.Matrix
}

// Encode splits the rows*cols data (row-major) into k row blocks, padding
// with zeros, and emits n Vandermonde-coded partitions. The generator is
// not systematic — every partition mixes all k blocks — so the partitions
// own their storage and data is only read: blocks are mixed in place from
// data, and only a block that runs past the last row is staged, zero-
// padded, in scratch.
func (c *GFMDSCode) Encode(rows, cols int, data []gf.Elem) (*GFEncodedMatrix, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("coding: data length %d want %d", len(data), rows*cols)
	}
	blockRows := (rows + c.k - 1) / c.k
	blocks := make([][]gf.Elem, c.k)
	for j := range blocks {
		lo, hi := j*blockRows*cols, (j+1)*blockRows*cols
		if hi <= len(data) {
			blocks[j] = data[lo:hi]
			continue
		}
		blocks[j] = make([]gf.Elem, blockRows*cols)
		copy(blocks[j], data[min(lo, len(data)):])
	}
	parts := make([]*gf.Matrix, c.n)
	for i := range parts {
		parts[i] = gf.NewMatrix(blockRows, cols)
	}
	// Band-split the field mixing across the pool: each participant owns
	// rows [lo, hi) of every partition. The inner sweep is the gf.Axpy
	// mul-accumulate kernel over the whole band, not a scalar Add/Mul chain.
	c.exec.For(blockRows, encodeChunk(c.n, c.k, cols), func(lo, hi int) {
		for i, p := range parts {
			band := p.Data()[lo*cols : hi*cols]
			for j, g := range c.gen.Row(i) {
				gf.Axpy(band, g, blocks[j][lo*cols:hi*cols])
			}
		}
	})
	return &GFEncodedMatrix{Code: c, OrigRows: rows, Cols: cols, BlockRows: blockRows, Parts: parts}, nil
}

// WorkerMatVec computes rows [ranges] of Ã_w·x over the field through the
// dot-lane kernel (gf.Matrix.MulVecRangeInto).
func (e *GFEncodedMatrix) WorkerMatVec(w int, x []gf.Elem, ranges []Range) (*GFPartial, error) {
	if len(x) != e.Cols {
		return nil, fmt.Errorf("coding: x length %d want %d", len(x), e.Cols)
	}
	ranges = NormalizeRanges(ranges)
	vals := make([]gf.Elem, TotalRows(ranges))
	part := e.Parts[w]
	at := 0
	for _, r := range ranges {
		part.MulVecRangeInto(vals[at:at+r.Len()], x, r.Lo, r.Hi)
		at += r.Len()
	}
	return &GFPartial{Worker: w, Ranges: ranges, RowWidth: 1, Values: vals}, nil
}

// WorkerMatVecBatch computes rows [ranges] of Ã_w·[x_0 … x_{width-1}]
// over the field, the x-vectors concatenated in xs: one sweep of the
// partition rows serves every lane. The returned partial carries
// RowWidth = width with row-major width-wide Values, exactly equal to
// width WorkerMatVec calls lane by lane.
func (e *GFEncodedMatrix) WorkerMatVecBatch(w int, xs []gf.Elem, width int, ranges []Range) (*GFPartial, error) {
	if width < 1 {
		return nil, fmt.Errorf("coding: batch width %d", width)
	}
	if len(xs) != width*e.Cols {
		return nil, fmt.Errorf("coding: xs length %d want %d", len(xs), width*e.Cols)
	}
	ranges = NormalizeRanges(ranges)
	vals := make([]gf.Elem, TotalRows(ranges)*width)
	part := e.Parts[w]
	at := 0
	for _, r := range ranges {
		part.MulVecBatchRangeInto(vals[at:at+r.Len()*width], xs, width, r.Lo, r.Hi)
		at += r.Len() * width
	}
	return &GFPartial{Worker: w, Ranges: ranges, RowWidth: width, Values: vals}, nil
}

// gfInvSet caches one inverted decode system per distinct worker set.
type gfInvSet struct {
	workers []int
	inv     *gf.Matrix
}

// gfDecodeGroupLanes bounds the gather scratch of the band-wise decode
// solve: a band is split so one piece's right-hand-side block holds at
// most this many lanes (columns), keeping ws.bm at k·gfDecodeGroupLanes
// elements regardless of BlockRows.
const gfDecodeGroupLanes = 4096

// GFDecodeWorkspace holds reusable decode state for one GFEncodedMatrix:
// the band table (the shared generic rowTable), cached inverted systems,
// and the solve scratch (bm gathers the right-hand-side block of a band
// piece, bmat is the reused matrix view over bm). Not safe for concurrent
// decodes.
type GFDecodeWorkspace struct {
	table   rowTable[gf.Elem]
	sets    []*gfInvSet
	workers []int
	bm      []gf.Elem
	bmat    gf.Matrix
	out     []gf.Elem
}

// NewDecodeWorkspace returns an empty decode workspace for e.
// A constructor allocates by definition; rounds reuse the workspace.
//
//s2c2:noalloc-waive
func (e *GFEncodedMatrix) NewDecodeWorkspace() *GFDecodeWorkspace {
	k := e.Code.k
	return &GFDecodeWorkspace{
		workers: make([]int, 0, k),
		out:     make([]gf.Elem, e.BlockRows*k),
	}
}

// setFor returns the inverted decode system for the (ascending) worker
// set, cached per distinct set. The cache-miss branch inverts a fresh
// system — once per distinct worker set, never in a warm round.
//
//s2c2:noalloc-waive
func (ws *GFDecodeWorkspace) setFor(e *GFEncodedMatrix, workers []int) (*gfInvSet, error) {
	for _, s := range ws.sets {
		if sameWorkers(s.workers, workers) {
			return s, nil
		}
	}
	k := e.Code.k
	sub := gf.NewMatrix(k, k)
	for i, w := range workers {
		copy(sub.Row(i), e.Code.gen.Row(w))
	}
	inv, invertible := gf.Invert(sub)
	if !invertible {
		return nil, fmt.Errorf("coding: GF decode set %v singular", workers)
	}
	s := &gfInvSet{workers: append([]int(nil), workers...), inv: inv}
	if len(ws.sets) >= maxCachedSets {
		ws.sets = ws.sets[:0]
	}
	ws.sets = append(ws.sets, s)
	return s, nil
}

// DecodeMatVec reconstructs A·x exactly from partials covering every
// partition row with at least k workers.
func (e *GFEncodedMatrix) DecodeMatVec(partials []*GFPartial) ([]gf.Elem, error) {
	return e.DecodeMatVecInto(nil, partials, nil)
}

// DecodeMatVecInto is DecodeMatVec writing into dst (length
// OrigRows·width, where width is the partials' common RowWidth; nil
// allocates it), reusing ws across rounds: inverted decode systems are
// cached per distinct worker set and table/scratch storage is recycled.
//
// The decode is band-wise: rows between two consecutive range boundaries
// of the partials share one decode set (the first k workers in arrival
// order covering them), so each band applies its cached inverse to all of
// its rows and lanes as one k×k · k×(rows·width) mat-mul
// (gf.Matrix.MulRangeInto — the vectorized exact kernel), each output row
// written straight into its data block. The only per-band bookkeeping is
// one contiguous copy per selected worker. Field arithmetic is exact, so
// banding cannot change any value: lane l of the result is bit-identical
// to decoding that lane's partials alone; dst is row-major width-wide
// (lane l of row r at dst[r*width+l]).
//
//s2c2:noalloc
func (e *GFEncodedMatrix) DecodeMatVecInto(dst []gf.Elem, partials []*GFPartial, ws *GFDecodeWorkspace) ([]gf.Elem, error) {
	if ws == nil {
		ws = e.NewDecodeWorkspace()
	}
	k := e.Code.k
	ws.table.reset(e.BlockRows)
	for _, p := range partials {
		if err := ws.table.add(p.Worker, p.Ranges, p.Values, p.Width()); err != nil {
			return nil, err
		}
	}
	if err := ws.table.bands(k); err != nil {
		return nil, err
	}
	width := ws.table.rowWidth
	if width == 0 {
		width = 1
	}
	if dst != nil && len(dst) != e.OrigRows*width {
		return nil, fmt.Errorf("coding: decode dst length %d want %d", len(dst), e.OrigRows*width)
	}
	ws.out = kernel.GrowSlice(ws.out, e.BlockRows*k*width)
	pieceRows := max(gfDecodeGroupLanes/width, 1)
	var cur *gfInvSet
	for _, band := range ws.table.list {
		ws.workers = ws.table.workers(ws.workers, band)
		if cur == nil || !sameWorkers(cur.workers, ws.workers) {
			var err error
			if cur, err = ws.setFor(e, ws.workers); err != nil {
				return nil, err
			}
		}
		for lo := band.lo; lo < band.hi; lo += pieceRows {
			hi := min(lo+pieceRows, band.hi)
			gw := (hi - lo) * width // right-hand-side lanes in this piece
			ws.bm = kernel.GrowSlice(ws.bm, k*gw)
			// Gather: bm row i is the i-th selected worker's values for
			// rows [lo, hi) — one contiguous run of its partial.
			for i := 0; i < k; i++ {
				copy(ws.bm[i*gw:(i+1)*gw], ws.table.values(band, i, lo, hi))
			}
			ws.bmat.Reshape(k, gw, ws.bm)
			// Row j of inv·bm is exactly ws.out's contiguous run for data
			// block j, rows [lo, hi).
			for j := 0; j < k; j++ {
				cur.inv.MulRangeInto(ws.out[(j*e.BlockRows+lo)*width:][:gw], &ws.bmat, j, j+1)
			}
		}
	}
	if dst == nil {
		// Convenience fallback; hot callers pass a reused dst.
		//s2c2:waive noalloc
		dst = make([]gf.Elem, e.OrigRows*width)
	}
	copy(dst, ws.out[:e.OrigRows*width])
	return dst, nil
}
