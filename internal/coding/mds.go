package coding

import (
	"fmt"

	"github.com/coded-computing/s2c2/internal/kernel"
)

// matrix is a coded partition: *mat.Dense or *gf.Matrix.
type matrix[T Element] interface {
	comparable
	Data() []T
}

// field is the MDS code's zero-size per-field descriptor, called once per
// band, piece or row range, never per element: the Cauchy parity entry
// (i, j), the encode axpy dst += g·src, the partition view of row-major
// data and a fresh owned partition, the worker kernel (rows [lo, hi) of a
// against the w vectors in xs, w-wide into dst, batched or single-x), and
// the p×p solver.
type field[T Element, M matrix[T]] interface {
	cauchy(i, j int) T
	axpy(dst []T, g T, src []T)
	wrap(rows, cols int, data []T) M
	alloc(rows, cols int) M
	sweep(dst, a []T, cols int, xs []T, w int, batch bool, lo, hi int)
	solver() paritySolver[T]
}

// paritySolver solves the band's p×p parity system assembled in ws.
// setup runs once per band, sized for up to q rows and lanes lanes a
// piece, and reports false if singular; solvePiece writes rows [lo, hi)
// of the missing blocks into ws.out (block j, row r, lane l at
// j*stride+r*width+l).
type paritySolver[T Element] interface {
	setup(ws *decodeWorkspace[T], q, lanes int) bool
	solvePiece(ws *decodeWorkspace[T], b rowBand, lo, hi, width, stride int)
}

// mdsCode is the systematic (n,k) MDS code over field F, written once for
// MDSCode (float64) and GFMDSCode (GF(2³¹−1)): partitions 0..k-1 are the
// raw data blocks and k..n-1 Cauchy-coded parity. Every square submatrix
// of a Cauchy matrix is nonsingular, so any k partitions decode.
type mdsCode[T Element, M matrix[T], F field[T, M]] struct {
	n, k int
	gen  []T // n×k generator [I; C], row i at gen[i*k : (i+1)*k]
	exec kernel.Exec
}

func newMDSCode[T Element, M matrix[T], F field[T, M]](n, k int) (mdsCode[T, M, F], error) {
	if k < 1 || k > n {
		return mdsCode[T, M, F]{}, fmt.Errorf("coding: invalid MDS parameters n=%d k=%d", n, k)
	}
	var f F
	gen := make([]T, n*k)
	for j := 0; j < k; j++ {
		gen[j*k+j] = 1
		for i := k; i < n; i++ {
			gen[i*k+j] = f.cauchy(i, j)
		}
	}
	return mdsCode[T, M, F]{n: n, k: k, gen: gen}, nil
}

// SetExec pins the code's parallel encode loops to a pool and fan-out.
// The zero Exec uses the shared kernel pool with full fan-out; co-tenant
// clusters in one process should give each code its own pool or MaxFan.
func (c *mdsCode[T, M, F]) SetExec(e kernel.Exec) { c.exec = e }

// N returns the number of coded partitions.
func (c *mdsCode[T, M, F]) N() int { return c.n }

// K returns the recovery threshold.
func (c *mdsCode[T, M, F]) K() int { return c.k }

// encoded holds the n coded partitions of a data matrix. It borrows the
// data: partitions 0..k-1 are capacity-capped views of its row blocks
// (only a block past the last row is copied and zero-padded), so changing
// the data stales the parity until it is re-encoded.
type encoded[T Element, M matrix[T], F field[T, M]] struct {
	Code      *mdsCode[T, M, F]
	OrigRows  int // rows of the data before padding
	Cols      int
	BlockRows int // rows per partition (= padded rows / k)
	Parts     []M // n coded partitions, each BlockRows×Cols

	pad []M // owned storage of zero-padded systematic blocks, by block
}

// encodeInto writes the coded partitions Ã_i = Σ_j G[i][j]·A_j of the
// rows×cols row-major data, reusing dst's parity and padding storage when
// its shape matches (dst == nil, or a mismatch, allocates).
func (c *mdsCode[T, M, F]) encodeInto(rows, cols int, data []T, dst *encoded[T, M, F]) *encoded[T, M, F] {
	var f F
	blockRows := (rows + c.k - 1) / c.k
	fresh := dst == nil || dst.Code != c || dst.BlockRows != blockRows || dst.Cols != cols
	if fresh {
		dst = &encoded[T, M, F]{Code: c, Parts: make([]M, c.n), pad: make([]M, c.k)}
		for i := c.k; i < c.n; i++ {
			dst.Parts[i] = f.alloc(blockRows, cols)
		}
	}
	dst.OrigRows, dst.Cols, dst.BlockRows = rows, cols, blockRows
	var none M
	for j := 0; j < c.k; j++ {
		lo, hi := j*blockRows*cols, (j+1)*blockRows*cols
		if hi <= len(data) {
			// Capacity-capped, so nothing appended through the view can
			// reach the next block's rows.
			dst.Parts[j] = f.wrap(blockRows, cols, data[lo:hi:hi])
			continue
		}
		if dst.pad[j] == none {
			dst.pad[j] = f.alloc(blockRows, cols)
		}
		block := dst.pad[j].Data()
		clear(block[copy(block, data[min(lo, len(data)):]):])
		dst.Parts[j] = dst.pad[j]
	}
	if c.n == c.k {
		return dst
	}
	// Each pool participant owns a disjoint row band of every parity
	// partition; fresh storage is already zero.
	c.exec.For(blockRows, encodeChunk(c.n, c.k, cols), func(lo, hi int) {
		for i := c.k; i < c.n; i++ {
			band := dst.Parts[i].Data()[lo*cols : hi*cols]
			if !fresh {
				clear(band)
			}
			for j, g := range c.gen[i*c.k : (i+1)*c.k] {
				f.axpy(band, g, dst.Parts[j].Data()[lo*cols:hi*cols])
			}
		}
	})
	return dst
}

// WorkerCompute runs the coded mat-vec kernel a worker executes: the rows
// [ranges] of Ã_w · x, as a partial ready for the decoder.
func (e *encoded[T, M, F]) WorkerCompute(w int, x []T, ranges []Range) *PartialOf[T] {
	return e.WorkerComputeInto(w, x, ranges, nil)
}

// WorkerComputeInto is WorkerCompute reusing dst's storage (nil
// allocates). It panics on bad input: an x of other than Cols elements,
// or rows outside the partition.
//
//s2c2:noalloc
func (e *encoded[T, M, F]) WorkerComputeInto(w int, x []T, ranges []Range, dst *PartialOf[T]) *PartialOf[T] {
	return must(e.compute(w, x, 1, false, ranges, dst))
}

// WorkerComputeBatchInto is WorkerComputeInto over w ≥ 1 x-vectors in xs
// (x_l at xs[l*Cols:(l+1)*Cols]) through the batched kernel: RowWidth = w,
// lane l of covered row r at Values[r*w+l], rows in range order.
//
//s2c2:noalloc
func (e *encoded[T, M, F]) WorkerComputeBatchInto(worker int, xs []T, w int, ranges []Range, dst *PartialOf[T]) *PartialOf[T] {
	return must(e.compute(worker, xs, w, true, ranges, dst))
}

// compute is the worker compute body.
//
//s2c2:noalloc
func (e *encoded[T, M, F]) compute(worker int, xs []T, w int, batch bool, ranges []Range, dst *PartialOf[T]) (*PartialOf[T], error) {
	if w < 1 || len(xs) != w*e.Cols {
		return nil, fmt.Errorf("coding: %d x elements at batch width %d, want %d per vector", len(xs), w, e.Cols)
	}
	if dst == nil {
		// Convenience fallback; hot callers pass a reused partial.
		//s2c2:waive noalloc
		dst = &PartialOf[T]{}
	}
	dst.Worker, dst.RowWidth = worker, w
	dst.Ranges = AppendNormalizeRanges(dst.Ranges[:0], ranges)
	if rs := dst.Ranges; len(rs) > 0 && (rs[0].Lo < 0 || rs[len(rs)-1].Hi > e.BlockRows) {
		return nil, fmt.Errorf("coding: worker %d rows %v outside [0,%d)", worker, rs, e.BlockRows)
	}
	var f F
	dst.Values = kernel.GrowSlice(dst.Values, TotalRows(dst.Ranges)*w)
	part, at := e.Parts[worker].Data(), 0
	for _, r := range dst.Ranges {
		f.sweep(dst.Values[at:at+r.Len()*w], part, e.Cols, xs, w, batch, r.Lo, r.Hi)
		at += r.Len() * w
	}
	return dst, nil
}

func must[P any](p P, err error) P {
	if err != nil {
		panic(err)
	}
	return p
}

// decodeChunkLanes bounds a decode piece (rows × RowWidth lanes): its
// runs stay cache-resident across the sweeps, and the solve is
// elementwise, so where a band is cut changes no bit.
const decodeChunkLanes = 2048

// decodeWorkspace is the reusable state of one encoding's decode rounds,
// whichever workers answer; not for concurrent decodes.
type decodeWorkspace[T Element] struct {
	table   rowTable[T]
	workers []int
	missing []int // data blocks the band's systematic workers do not hold
	sys     []T   // p×p: the parity workers' generator rows at the missing blocks
	known   []T   // p×s: the same rows at the known (systematic) blocks
	coef    []T   // storage of sys and known
	out     []T   // decoded data blocks
	solve   paritySolver[T]
}

// NewDecodeWorkspace returns an empty workspace for decodes against e.
// A constructor allocates by definition; rounds reuse the workspace.
//
//s2c2:noalloc-waive
func (e *encoded[T, M, F]) NewDecodeWorkspace() *decodeWorkspace[T] {
	k := e.Code.k
	return &decodeWorkspace[T]{workers: make([]int, 0, k), out: make([]T, e.BlockRows*k)}
}

// DecodeMatVec reconstructs y = A·x (length OrigRows) from partials
// covering every partition row with at least k workers.
func (e *encoded[T, M, F]) DecodeMatVec(partials []*PartialOf[T]) ([]T, error) {
	return e.DecodeMatVecInto(nil, partials, nil)
}

// DecodeMatVecInto is DecodeMatVec writing into dst (row-major, OrigRows
// × the partials' RowWidth, 0 read as 1; nil allocates) with ws for all
// scratch: reusing ws makes steady-state rounds allocation-free. Rows
// between two consecutive range boundaries share one decode set (the
// first k covering workers in arrival order): the band's systematic
// blocks are copied and its p parity values, less the known blocks'
// share, solved as one p×p system over all its lanes. Lane operations are
// elementwise: a batch lane is bit-identical to decoding it alone.
//
//s2c2:noalloc
func (e *encoded[T, M, F]) DecodeMatVecInto(dst []T, partials []*PartialOf[T], ws *decodeWorkspace[T]) ([]T, error) {
	if ws == nil {
		ws = e.NewDecodeWorkspace()
	}
	if ws.solve == nil {
		// Once per workspace: a zero-value one is ready to use too.
		var f F
		//s2c2:waive noalloc
		ws.solve = f.solver()
	}
	c := e.Code
	if err := buildPartials(&ws.table, partials, e.BlockRows, c.k); err != nil {
		return nil, err
	}
	width := max(ws.table.rowWidth, 1) // no partials and no rows: nothing to size by
	if dst != nil && len(dst) != e.OrigRows*width {
		return nil, fmt.Errorf("coding: decode dst length %d want %d", len(dst), e.OrigRows*width)
	}
	stride := e.BlockRows * width // data block j of row r at out[j*stride + r*width]
	ws.out = kernel.GrowSlice(ws.out, c.k*stride)
	pieceRows := max(decodeChunkLanes/width, 1)
	// The largest system and piece there can be: no later band grows.
	q, lanes := min(c.k, c.n-c.k), min(pieceRows, e.BlockRows)*width
	for _, band := range ws.table.list {
		ws.workers = ws.table.workers(ws.workers, band)
		// Ascending, so the systematic workers (ids below k) come first.
		s := 0
		for ; s < c.k && ws.workers[s] < c.k; s++ {
			copy(ws.out[ws.workers[s]*stride+band.lo*width:], ws.table.values(band, s, band.lo, band.hi))
		}
		if s == c.k {
			continue
		}
		ws.assemble(c.gen, c.k, q, s)
		if !ws.solve.setup(ws, q, lanes) {
			return nil, fmt.Errorf("coding: decode set %v singular", ws.workers)
		}
		for lo := band.lo; lo < band.hi; lo += pieceRows {
			ws.solve.solvePiece(ws, band, lo, min(lo+pieceRows, band.hi), width, stride)
		}
	}
	if dst == nil {
		// Convenience fallback; hot callers pass a reused dst.
		//s2c2:waive noalloc
		dst = make([]T, e.OrigRows*width)
	}
	copy(dst, ws.out[:e.OrigRows*width])
	return dst, nil
}

// assemble lays out the band's parity system: the blocks its s systematic
// workers miss, and the parity workers' generator rows at those (sys) and
// at the known blocks' columns.
//
//s2c2:noalloc
func (ws *decodeWorkspace[T]) assemble(gen []T, k, q, s int) {
	p := k - s
	ws.missing = kernel.GrowInts(ws.missing, q)[:p]
	for j, have, m := 0, ws.workers[:s], 0; j < k; j++ {
		if len(have) > 0 && have[0] == j {
			have = have[1:]
		} else {
			ws.missing[m], m = j, m+1
		}
	}
	ws.coef = kernel.GrowSlice(ws.coef, q*k)
	ws.sys, ws.known = ws.coef[:p*p], ws.coef[p*p:p*k]
	for i, w := range ws.workers[s:] {
		g := gen[w*k : (w+1)*k]
		for c, j := range ws.missing {
			ws.sys[i*p+c] = g[j]
		}
		for c, j := range ws.workers[:s] {
			ws.known[i*s+c] = g[j]
		}
	}
}
