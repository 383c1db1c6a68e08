//go:build amd64 && !noasm

package kernel

import (
	"math"
	"unsafe"
)

// The AVX2 backend: hand-written assembly micro-kernels using 256-bit FMA
// accumulators (asm_amd64.s), plus the Go blocking/packing drivers that
// feed them. Accumulation order is fixed (see each wrapper), so results
// are bit-identical run to run on this backend; versus the generic
// backend, float64 results differ only by accumulated rounding (different
// summation order and fused multiply-adds) and GF results are exact.

// nrColsAVX2 is the packed-tile width of the AVX2 mat-mul micro-kernel:
// two 4-lane YMM column blocks per C row, four C rows, so the 4×8 tile
// lives in eight YMM accumulators across the whole kc sweep.
const nrColsAVX2 = 8

var avx2Backend = &backendImpl{
	name:             "avx2",
	dot:              dotVec,
	axpy:             axpyVec,
	matVecRange:      matVecRangeVec,
	matVecRangeBatch: matVecRangeBatchVec,
	matMulAccRange:   matMulAccRangeAVX2,
	gfAxpy:           gfAxpyVec,
	gfMatVec:         gfMatVecVec,
	gfMatVecBatch:    gfMatVecBatchVec,
	chunkFlops:       64 * 1024,
}

// dotAVX2 processes n elements (n must be a multiple of 8) with four
// independent YMM FMA accumulators, reduced in a fixed order.
//
//go:noescape
func dotAVX2(x, y *float64, n int) float64

// dot2AVX2 computes dst[r] = a[r*lda : r*lda+n] · x for r < 2 (n must be
// a multiple of 8), each row bit-identical to dotAVX2 on it alone.
//
//go:noescape
func dot2AVX2(dst, a *float64, lda int, x *float64, n int)

// axpyAVX2 computes y[0:n] += a*x[0:n]; n must be a multiple of 8.
//
//go:noescape
func axpyAVX2(a float64, x, y *float64, n int)

// mulTile4x8AVX2 accumulates a 4-row × 8-col C tile (rows stride elements
// apart) from four A row fragments and a packed kc×8 B tile.
//
//go:noescape
func mulTile4x8AVX2(c *float64, stride int, a0, a1, a2, a3, bt *float64, kc int)

// mulTile1x8AVX2 is the single-row tail of mulTile4x8AVX2.
//
//go:noescape
func mulTile1x8AVX2(c, a0, bt *float64, kc int)

// gfAxpyAVX2 computes dst[0:n] += c·src[0:n] over GF(2³¹−1) in 4-lane
// 64-bit vectors (Mersenne folding); n must be a multiple of 8.
//
//go:noescape
func gfAxpyAVX2(dst *uint32, c uint32, src *uint32, n int)

// gfTile4AVX2 computes one A row against four x lanes taken from the
// pre-widened pack (see gfPackLanes; stride is the byte distance between
// column blocks): dst[l] = a · x_l over GF(2³¹−1), l < 4. It always
// writes four results.
//
//go:noescape
func gfTile4AVX2(dst, a *uint32, cols int, pack *uint64, stride int)

// gfDot4AVX2 computes dst[t] = s · o_t over GF(2³¹−1) (all operands n
// long) for t < 4; it always writes four results.
//
//go:noescape
func gfDot4AVX2(dst, s, o0, o1, o2, o3 *uint32, n int)

// dotVec sums the vectorized prefix in the assembly kernel, then folds the
// up-to-7-element tail in sequentially — one fixed order per length.
//
//s2c2:noalloc
func dotVec(x, y []float64) float64 {
	n := len(x)
	y = y[:n]
	var s float64
	if nv := n &^ 7; nv > 0 {
		s = dotAVX2(&x[0], &y[0], nv)
	}
	return dotTail(s, x, y, n&^7)
}

// dotTail folds elements [from, len(x)) of x·y into the vector kernel's
// sum s, sequentially — the one tail order of every vector dot, so the
// multi-row tiles land on the single-row bits.
func dotTail(s float64, x, y []float64, from int) float64 {
	y = y[:len(x)]
	for i := from; i < len(x); i++ {
		s += x[i] * y[i]
	}
	return s
}

// axpyVec must be elementwise position-independent: callers band flat
// slices at arbitrary offsets (parallel encode) and the results must be
// bit-identical to one unbanded call. The assembly lanes use fused
// multiply-adds, so the scalar tail uses math.FMA (hardware FMA on any
// CPU this backend dispatches on) for the identical single rounding.
//
//s2c2:noalloc
func axpyVec(a float64, x, y []float64) {
	n := len(y)
	x = x[:n]
	if nv := n &^ 7; nv > 0 {
		axpyAVX2(a, &x[0], &y[0], nv)
	}
	for i := n &^ 7; i < n; i++ {
		y[i] = math.FMA(a, x[i], y[i])
	}
}

// matVecRangeVec sweeps two rows per dot2AVX2 call, which loads each
// chunk of x once for both, then folds each row's up-to-7-column tail in
// as dotVec does: every row is bit-identical to dotVec on that row. A
// remainder row, and rows shorter than 8, take dotVec.
//
//s2c2:noalloc
func matVecRangeVec(dst, a []float64, cols int, x []float64, lo, hi int) {
	i := lo
	if nv := cols &^ 7; nv > 0 {
		x = x[:cols]
		for ; i+2 <= hi; i += 2 {
			out := dst[i-lo : i-lo+2]
			dot2AVX2(&out[0], &a[i*cols : (i+2)*cols][0], cols, &x[0], nv)
			out[0] = dotTail(out[0], a[i*cols:(i+1)*cols], x, nv)
			out[1] = dotTail(out[1], a[(i+1)*cols:(i+2)*cols], x, nv)
		}
	}
	for ; i < hi; i++ {
		dst[i-lo] = dotVec(a[i*cols:(i+1)*cols], x)
	}
}

// matMulAccRangeAVX2 accumulates rows [lo, hi) of A·B into dst with the
// same kcBlock×ncBlock cache blocking as the generic backend but 8-column
// packed tiles feeding the 4×8 FMA micro-kernel. Edge tiles (final panel
// columns when nc is not a multiple of 8) are computed full-width into a
// zero-padded scratch tile and accumulated column-by-column, so the
// assembly kernel never needs column masking.
//
//s2c2:noalloc
func matMulAccRangeAVX2(dst, a []float64, k int, b []float64, n, lo, hi int) {
	if hi <= lo || n == 0 || k == 0 {
		return
	}
	buf := GetBuf(kcBlock * ncBlock)
	defer buf.Put()
	var edge [mrRows * nrColsAVX2]float64
	for kk := 0; kk < k; kk += kcBlock {
		kc := min(kcBlock, k-kk)
		for jj := 0; jj < n; jj += ncBlock {
			nc := min(ncBlock, n-jj)
			packPanel8(buf.F, b, n, kk, kc, jj, nc)
			tiles := (nc + nrColsAVX2 - 1) / nrColsAVX2
			i := lo
			for ; i+mrRows <= hi; i += mrRows {
				a0 := &a[i*k+kk]
				a1 := &a[(i+1)*k+kk]
				a2 := &a[(i+2)*k+kk]
				a3 := &a[(i+3)*k+kk]
				for t := 0; t < tiles; t++ {
					bt := &buf.F[t*kc*nrColsAVX2]
					j := jj + t*nrColsAVX2
					if w := nc - t*nrColsAVX2; w < nrColsAVX2 {
						edge = [mrRows * nrColsAVX2]float64{}
						mulTile4x8AVX2(&edge[0], nrColsAVX2, a0, a1, a2, a3, bt, kc)
						for r := 0; r < mrRows; r++ {
							row := dst[(i+r)*n+j : (i+r)*n+j+w]
							for c := range row {
								row[c] += edge[r*nrColsAVX2+c]
							}
						}
					} else {
						mulTile4x8AVX2(&dst[i*n+j], n, a0, a1, a2, a3, bt, kc)
					}
				}
			}
			for ; i < hi; i++ {
				a0 := &a[i*k+kk]
				for t := 0; t < tiles; t++ {
					bt := &buf.F[t*kc*nrColsAVX2]
					j := jj + t*nrColsAVX2
					if w := nc - t*nrColsAVX2; w < nrColsAVX2 {
						edge = [mrRows * nrColsAVX2]float64{}
						mulTile1x8AVX2(&edge[0], a0, bt, kc)
						row := dst[i*n+j : i*n+j+w]
						for c := range row {
							row[c] += edge[c]
						}
					} else {
						mulTile1x8AVX2(&dst[i*n+j], a0, bt, kc)
					}
				}
			}
		}
	}
}

// packPanel8 copies the B panel rows [kk,kk+kc) × cols [jj,jj+nc) into dst
// as 8-column tiles, each tile stored kc×8 row-major, the final tile
// zero-padded to width 8. The padded panel never exceeds kcBlock×ncBlock
// elements because ncBlock is a multiple of 8.
func packPanel8(dst, b []float64, n, kk, kc, jj, nc int) {
	tiles := (nc + nrColsAVX2 - 1) / nrColsAVX2
	for t := 0; t < tiles; t++ {
		base := t * kc * nrColsAVX2
		j0 := jj + t*nrColsAVX2
		w := nc - t*nrColsAVX2
		if w >= nrColsAVX2 {
			for kx := 0; kx < kc; kx++ {
				src := b[(kk+kx)*n+j0 : (kk+kx)*n+j0+nrColsAVX2]
				copy(dst[base+kx*nrColsAVX2:base+(kx+1)*nrColsAVX2], src)
			}
			continue
		}
		for kx := 0; kx < kc; kx++ {
			d := dst[base+kx*nrColsAVX2 : base+(kx+1)*nrColsAVX2]
			for c := 0; c < nrColsAVX2; c++ {
				if c < w {
					d[c] = b[(kk+kx)*n+j0+c]
				} else {
					d[c] = 0
				}
			}
		}
	}
}

// matVecRangeBatchVec treats the batch as a skinny mat-mul against the
// implicit cols×w right-hand side whose column l is x_l, driving the same
// 4×8 FMA micro-kernels as the mat-mul backend: one sweep of A feeds up
// to eight x-vectors per tile at full FMA throughput instead of being
// DRAM-bound on the A stream. The x rows are packed into a zero-padded
// kc×8 tile per lane group; lane groups narrower than eight go through a
// zeroed scratch tile exactly like the mat-mul edge path. Each output
// element's accumulation order is the micro-kernel's — fixed, and
// band-invariant because rows are independent in both micro-kernels.
//
//s2c2:noalloc
func matVecRangeBatchVec(dst, a []float64, cols int, xs []float64, w, lo, hi int) {
	if hi <= lo || w <= 0 {
		return
	}
	Zero(dst[:(hi-lo)*w])
	if cols == 0 {
		return
	}
	buf := GetBuf(kcBlock * nrColsAVX2)
	defer buf.Put()
	var edge [mrRows * nrColsAVX2]float64
	for l0 := 0; l0 < w; l0 += nrColsAVX2 {
		lw := min(nrColsAVX2, w-l0)
		for kk := 0; kk < cols; kk += kcBlock {
			kc := min(kcBlock, cols-kk)
			packXsTile8(buf.F, xs, cols, l0, lw, kk, kc)
			i := lo
			for ; i+mrRows <= hi; i += mrRows {
				a0 := &a[i*cols+kk]
				a1 := &a[(i+1)*cols+kk]
				a2 := &a[(i+2)*cols+kk]
				a3 := &a[(i+3)*cols+kk]
				if lw == nrColsAVX2 {
					mulTile4x8AVX2(&dst[(i-lo)*w+l0], w, a0, a1, a2, a3, &buf.F[0], kc)
				} else {
					edge = [mrRows * nrColsAVX2]float64{}
					mulTile4x8AVX2(&edge[0], nrColsAVX2, a0, a1, a2, a3, &buf.F[0], kc)
					for r := 0; r < mrRows; r++ {
						row := dst[(i-lo+r)*w+l0 : (i-lo+r)*w+l0+lw]
						for c := range row {
							row[c] += edge[r*nrColsAVX2+c]
						}
					}
				}
			}
			for ; i < hi; i++ {
				a0 := &a[i*cols+kk]
				if lw == nrColsAVX2 {
					mulTile1x8AVX2(&dst[(i-lo)*w+l0], a0, &buf.F[0], kc)
				} else {
					edge = [mrRows * nrColsAVX2]float64{}
					mulTile1x8AVX2(&edge[0], a0, &buf.F[0], kc)
					row := dst[(i-lo)*w+l0 : (i-lo)*w+l0+lw]
					for c := range row {
						row[c] += edge[c]
					}
				}
			}
		}
	}
}

// packXsTile8 packs elements [kk, kk+kc) of lanes [l0, l0+lw) of the
// concatenated x-vectors into one kc×8 tile (tile row r holds element
// kk+r of each lane), zero-padded to width 8 so the micro-kernel needs no
// column masking.
func packXsTile8(dst, xs []float64, cols, l0, lw, kk, kc int) {
	for kx := 0; kx < kc; kx++ {
		d := dst[kx*nrColsAVX2 : (kx+1)*nrColsAVX2]
		for c := 0; c < nrColsAVX2; c++ {
			if c < lw {
				d[c] = xs[(l0+c)*cols+kk+kx]
			} else {
				d[c] = 0
			}
		}
	}
}

// gfPackLen is the float64-element size of the pooled scratch behind a
// gfPackLanes pack of the given lane count.
func gfPackLen(cols, lanes int) int { return (cols + 7) / 8 * lanes * 8 }

// gfPackLanes widens the first w x-vectors of xs into the batch tiles'
// operand pack, laid out [col-block][lane][8]uint64 over lanes lanes per
// block: lane l's columns 8b … 8b+7 sit zero-extended at
// pack[(b*lanes+l)*8:], so a tile reads each lane chunk with one
// fixed-stride load (a VPMULUDQ memory operand on avx2, one register
// feeding both IFMA halves on avx512) instead of re-widening it per row.
// Columns past cols and lanes past w are zero. The pack borrows buf's
// storage (uint64 and float64 share size and alignment) and lives for
// one kernel call.
func gfPackLanes(buf *Buf, xs []uint32, cols, w, lanes int) []uint64 {
	pack := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(buf.F))), len(buf.F))
	blocks := (cols + 7) / 8
	for l := 0; l < lanes; l++ {
		var x []uint32
		if l < w {
			x = xs[l*cols : (l+1)*cols]
		}
		for b := 0; b < blocks; b++ {
			d := (*[8]uint64)(pack[(b*lanes+l)*8:])
			src := x[min(b*8, len(x)):]
			if len(src) >= 8 {
				s := (*[8]uint32)(src)
				d[0], d[1], d[2], d[3] = uint64(s[0]), uint64(s[1]), uint64(s[2]), uint64(s[3])
				d[4], d[5], d[6], d[7] = uint64(s[4]), uint64(s[5]), uint64(s[6]), uint64(s[7])
				continue
			}
			*d = [8]uint64{}
			for j, v := range src {
				d[j] = uint64(v)
			}
		}
	}
	return pack
}

// gfDot4Vec computes dst[t] = shared · others[t*stride : t*stride+n] for
// t < len(dst) ≤ 4, n = len(shared) > 0, through the shared-operand
// kernel: each shared half-chunk is widened once for all four products,
// folds are lazy (one per three column blocks) and the column tail is a
// masked load. Missing operands alias the first so the kernel's loads
// stay in bounds; a partial group lands in scratch first because the
// kernel always stores four results.
//
//s2c2:noalloc
func gfDot4Vec(dst, shared, others []uint32, stride int) {
	n := len(shared)
	o := [4]*uint32{&others[0], &others[0], &others[0], &others[0]}
	for t := 1; t < len(dst); t++ {
		o[t] = &others[t*stride : t*stride+n][0]
	}
	if len(dst) == 4 {
		gfDot4AVX2(&dst[0], &shared[0], o[0], o[1], o[2], o[3], n)
		return
	}
	var part [4]uint32
	gfDot4AVX2(&part[0], &shared[0], o[0], o[1], o[2], o[3], n)
	copy(dst, part[:])
}

// gfMatVecVec tiles four rows per sweep of x: the widened x chunk is
// shared by the four row products. Exact — identical to the generic
// backend for any [lo, hi).
//
//s2c2:noalloc
func gfMatVecVec(dst, a []uint32, cols int, x []uint32, lo, hi int) {
	if cols == 0 {
		clear(dst[:max(hi-lo, 0)])
		return
	}
	for i := lo; i < hi; i += 4 {
		n := min(4, hi-i)
		gfDot4Vec(dst[i-lo:i-lo+n], x[:cols], a[i*cols:], cols)
	}
}

// gfMatVecBatchVec is the lane-fused batch sweep on 256-bit registers:
// every 8-column chunk of an A row is widened once (two YMM halves) and
// multiplied against a tile of four x lanes, read pre-widened from a
// per-call pack as memory operands, with the tile's eight half-lane
// accumulators resident across the row and one lazy Mersenne fold per
// three column blocks. The last one to three lanes take the pack-free
// shared-operand kernel. Exact — identical to the generic backend.
//
//s2c2:noalloc
func gfMatVecBatchVec(dst, a []uint32, cols int, xs []uint32, w, lo, hi int) {
	if hi <= lo || w <= 0 {
		return
	}
	if cols == 0 {
		clear(dst[:(hi-lo)*w])
		return
	}
	tiled := w &^ 3 // lanes served by 4-lane tiles
	var pack []uint64
	if tiled > 0 {
		buf := GetBuf(gfPackLen(cols, tiled))
		defer buf.Put()
		pack = gfPackLanes(buf, xs, cols, tiled, tiled)
	}
	for i := lo; i < hi; i++ {
		row := a[i*cols : (i+1)*cols]
		out := dst[(i-lo)*w : (i-lo+1)*w]
		l := 0
		for ; l < tiled; l += 4 {
			gfTile4AVX2(&out[l], &row[0], cols, &pack[l*8], tiled*64)
		}
		if l < w {
			gfDot4Vec(out[l:w], row, xs[l*cols:], cols)
		}
	}
}

//s2c2:noalloc
func gfAxpyVec(dst []uint32, c uint32, src []uint32) {
	src = src[:len(dst)]
	if nv := len(dst) &^ 7; nv > 0 {
		gfAxpyAVX2(&dst[0], c, &src[0], nv)
	}
	for i := len(dst) &^ 7; i < len(dst); i++ {
		dst[i] = gfMulAdd31(dst[i], c, src[i])
	}
}
