package coding

import (
	"fmt"

	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/kernel"
)

// GFMDSCode is the exact (n,k) MDS code over GF(2³¹−1), the float64
// code's systematic form in the field: partitions 0..k-1 are the raw data
// blocks and partitions k..n-1 Cauchy-coded parity. Every square
// submatrix of a Cauchy matrix is nonsingular, so any k partitions
// reconstruct the data, and decoding is bit-exact. It backs property tests
// and offers an exact coding path for integer payloads.
type GFMDSCode struct {
	n, k int
	gen  *gf.Matrix // n×k generator [I; C]
	exec kernel.Exec
}

// NewGFMDSCode builds an exact (n,k) code.
func NewGFMDSCode(n, k int) (*GFMDSCode, error) {
	if k < 1 || k > n {
		return nil, fmt.Errorf("coding: invalid GF MDS parameters n=%d k=%d", n, k)
	}
	gen := gf.NewMatrix(n, k)
	for j := 0; j < k; j++ {
		gen.Set(j, j, 1)
	}
	// Parity rows: Cauchy C[i][j] = 1/(x_i − y_j) with x_i = i ∈ [k, n) and
	// y_j = j ∈ [0, k). The two point sets are disjoint, so every entry is
	// defined and every square submatrix of C is nonsingular.
	for i := k; i < n; i++ {
		for j := 0; j < k; j++ {
			gen.Set(i, j, gf.Inv(gf.Elem(i-j)))
		}
	}
	return &GFMDSCode{n: n, k: k, gen: gen}, nil
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
//
// The encoding borrows its input: the code is systematic, so partitions
// 0..k-1 are capacity-capped views of the data's own row blocks, not
// copies (only a block that runs past the last row — rows % k != 0 — is
// copied and zero-padded). Mutating the data therefore mutates the
// systematic partitions and stales the parity; keep it alive and
// unchanged for as long as the encoding is in use.
type GFEncodedMatrix struct {
	Code      *GFMDSCode
	OrigRows  int
	Cols      int
	BlockRows int
	Parts     []*gf.Matrix
}

// Encode splits the rows*cols data (row-major) into k row blocks, padding
// with zeros, and emits the n coded partitions. The result borrows data
// (see GFEncodedMatrix): only the n−k parity partitions, and a padded last
// block, own their storage, and data itself is only read.
func (c *GFMDSCode) Encode(rows, cols int, data []gf.Elem) (*GFEncodedMatrix, error) {
	if len(data) != rows*cols {
		return nil, fmt.Errorf("coding: data length %d want %d", len(data), rows*cols)
	}
	blockRows := (rows + c.k - 1) / c.k
	parts := make([]*gf.Matrix, c.n)
	for j := 0; j < c.k; j++ {
		lo, hi := j*blockRows*cols, (j+1)*blockRows*cols
		if hi <= len(data) {
			// Capacity-capped, so nothing appended through the view can
			// reach the next block's rows.
			parts[j] = gf.NewMatrixFromData(blockRows, cols, data[lo:hi:hi])
			continue
		}
		parts[j] = gf.NewMatrix(blockRows, cols)
		copy(parts[j].Data(), data[min(lo, len(data)):])
	}
	for i := c.k; i < c.n; i++ {
		parts[i] = gf.NewMatrix(blockRows, cols)
	}
	// Band-split the parity mixing across the pool: each participant owns
	// rows [lo, hi) of every parity partition and reads the data blocks in
	// place through the systematic partitions.
	c.exec.For(blockRows, encodeChunk(c.n, c.k, cols), func(lo, hi int) {
		for i := c.k; i < c.n; i++ {
			band := parts[i].Data()[lo*cols : hi*cols]
			for j, g := range c.gen.Row(i) {
				gf.Axpy(band, g, parts[j].Data()[lo*cols:hi*cols])
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

// GFDecodeWorkspace holds the reusable state of exact decode rounds: the
// band table (the shared generic rowTable), the band's parity system, its
// inverse and folded coefficients, and the decoded blocks. Nothing in it
// depends on which workers answered, so rounds whose worker sets churn
// reuse it without allocating. Not safe for concurrent decodes.
type GFDecodeWorkspace struct {
	table    rowTable[gf.Elem]
	workers  []int
	missing  []int     // data blocks the band's systematic workers do not hold
	sys, inv gf.Matrix // the band's p×p parity system and its inverse
	fold     []gf.Elem // p×s: −(inv · the parity rows' systematic columns)
	coef     []gf.Elem // storage of sys, inv, fold and the inversion scratch
	out      []gf.Elem
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

// DecodeMatVec reconstructs A·x exactly from partials covering every
// partition row with at least k workers.
func (e *GFEncodedMatrix) DecodeMatVec(partials []*GFPartial) ([]gf.Elem, error) {
	return e.DecodeMatVecInto(nil, partials, nil)
}

// DecodeMatVecInto is DecodeMatVec writing into dst (length
// OrigRows·width, where width is the partials' common RowWidth; nil
// allocates it), using ws for all scratch state. Passing the same
// workspace across rounds makes the steady-state decode allocation-free,
// whichever workers answer.
//
// The decode is band-wise: rows between two consecutive range boundaries
// of the partials share one decode set (the first k workers in arrival
// order covering them), so each band is solved once over vectors of
// rows × width lanes read in place from the partials. The code is
// systematic, so a band's s systematic workers hand over their data
// blocks as they are (a copy); its p = k − s parity workers' values, less
// the known blocks' share, leave a p×p Cauchy system in the p missing
// blocks, inverted exactly per band. A lane costs p² + p·s gf.Axpy
// sweeps, and a band of systematic workers only (p = 0) is a copy. Field
// arithmetic is exact, so neither banding nor the order of operations can
// change any value: lane l of the result is bit-identical to decoding
// that lane's partials alone; dst is row-major width-wide (lane l of row
// r at dst[r*width+l]).
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
	stride := e.BlockRows * width // data block j of row r at out[j*stride + r*width]
	ws.out = kernel.GrowSlice(ws.out, k*stride)
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
		if err := ws.invertParity(e, s); err != nil {
			return nil, err
		}
		// Pieces keep each missing block's run cache-resident across its
		// p + s sweeps.
		for lo := band.lo; lo < band.hi; lo += pieceRows {
			hi := min(lo+pieceRows, band.hi)
			ws.solvePiece(e, band, s, lo, hi, width)
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

// invertParity sets up the parity system of the band whose workers are
// ws.workers, the first s of them systematic: the missing data blocks, the
// inverse of the p×p generator submatrix whose rows are the parity workers
// and whose columns are the missing blocks, and fold, the known blocks'
// share carried through that inverse. Any square submatrix of a Cauchy
// matrix is nonsingular, so the inversion cannot fail on a valid set.
//
//s2c2:noalloc
func (ws *GFDecodeWorkspace) invertParity(e *GFEncodedMatrix, s int) error {
	k, p := e.Code.k, len(ws.workers)-s
	// Sized for the largest parity system there can be, so no later band
	// or round grows them.
	q := min(k, e.Code.n-k)
	ws.missing = kernel.GrowInts(ws.missing, q)[:p]
	ws.coef = kernel.GrowSlice(ws.coef, q*(3*q+k))
	have, m := ws.workers[:s], 0
	for j := 0; j < k; j++ {
		if len(have) > 0 && have[0] == j {
			have = have[1:]
			continue
		}
		ws.missing[m] = j
		m++
	}
	ws.sys.Reshape(p, p, ws.coef[:p*p])
	ws.inv.Reshape(p, p, ws.coef[p*p:2*p*p])
	for i, w := range ws.workers[s:] {
		g, row := e.Code.gen.Row(w), ws.sys.Row(i)
		for c, j := range ws.missing {
			row[c] = g[j]
		}
	}
	if !gf.InvertInto(&ws.inv, &ws.sys, ws.coef[2*p*p:3*p*p]) {
		return fmt.Errorf("coding: GF decode set %v singular", ws.workers)
	}
	// Missing block t = Σ_i inv[t][i]·(v_i − Σ_c G[w_i][j_c]·block j_c)
	// = Σ_i inv[t][i]·v_i + Σ_c fold[t][c]·block j_c.
	ws.fold = ws.coef[3*p*p : 3*p*p+p*s]
	for t := 0; t < p; t++ {
		for c, j := range ws.workers[:s] {
			var acc gf.Elem
			for i, w := range ws.workers[s:] {
				acc = gf.Add(acc, gf.Mul(ws.inv.At(t, i), e.Code.gen.At(w, j)))
			}
			ws.fold[t*s+c] = gf.Neg(acc)
		}
	}
	return nil
}

// solvePiece decodes rows [lo, hi) of band b's missing blocks into ws.out:
// each is the inverse's combination of the parity workers' values, read in
// place from their partials, plus the folded share of the systematic
// blocks already copied — p + s sweeps over m = (hi−lo)·width lanes.
//
//s2c2:noalloc
func (ws *GFDecodeWorkspace) solvePiece(e *GFEncodedMatrix, b rowBand, s, lo, hi, width int) {
	// Data block j of rows [lo, hi) is out[j*stride+at : j*stride+at+m].
	stride, at, m := e.BlockRows*width, lo*width, (hi-lo)*width
	for t, j := range ws.missing {
		out := ws.out[j*stride+at : j*stride+at+m]
		clear(out)
		for i, c := range ws.inv.Row(t) {
			gf.Axpy(out, c, ws.table.values(b, s+i, lo, hi))
		}
		for c, known := range ws.workers[:s] {
			gf.Axpy(out, ws.fold[t*s+c], ws.out[known*stride+at:known*stride+at+m])
		}
	}
}
