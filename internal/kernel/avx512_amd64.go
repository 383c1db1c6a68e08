//go:build amd64 && !noasm

package kernel

import "math"

// The AVX-512 backend: hand-written assembly micro-kernels using 512-bit
// FMA accumulators and opmask registers (asm512_amd64.s), plus the Go
// blocking/packing drivers that feed them. Where the AVX2 backend routes
// partial mat-mul tiles through zero-padded scratch, this backend passes
// an explicit column mask to the tile kernels and lets EVEX masked
// loads/stores handle the edges — no scratch tile, no store amplification.
// The GF batch tile alone also needs AVX512-IFMA (see gfTileIFMA).
// Accumulation order is fixed (see each wrapper), so results are
// bit-identical run to run on this backend; versus the generic backend,
// float64 results differ only by accumulated rounding and GF results are
// exact.

// nrColsAVX512 is the packed-tile width of the AVX-512 mat-mul
// micro-kernel: one 8-lane ZMM column block per C row. mrRowsAVX512 C
// rows ride one B-tile sweep, so the 8×8 tile lives in eight ZMM
// accumulators. The packed-tile layout is identical to the AVX2
// backend's, so the same packers feed both.
const (
	nrColsAVX512 = nrColsAVX2
	mrRowsAVX512 = 8

	// fullTileMask is the 8-column opmask for interior tiles; edge tiles
	// use (1<<w)-1.
	fullTileMask = 0xFF
)

var avx512Backend = &backendImpl{
	name:             "avx512",
	dot:              dotVec512,
	axpy:             axpyVec512,
	matVecRange:      matVecRangeVec512,
	matVecRangeBatch: matVecRangeBatchVec512,
	matMulAccRange:   matMulAccRangeAVX512,
	gfAxpy:           gfAxpyVec512,
	gfMatVec:         gfMatVecVec512,
	gfMatVecBatch:    gfMatVecBatchVec512,
	chunkFlops:       128 * 1024,
}

// dotAVX512 processes n elements (n must be a multiple of 8) with four
// independent ZMM FMA accumulators, reduced in a fixed order.
//
//go:noescape
func dotAVX512(x, y *float64, n int) float64

// dot4AVX512 computes dst[r] = a[r*lda : r*lda+n] · x for r < 4 (n must
// be a multiple of 8), each row bit-identical to dotAVX512 on it alone.
//
//go:noescape
func dot4AVX512(dst, a *float64, lda int, x *float64, n int)

// axpyAVX512 computes y[0:n] += a*x[0:n]; n must be a multiple of 8.
//
//go:noescape
func axpyAVX512(a float64, x, y *float64, n int)

// mulTile8x8AVX512 accumulates an 8-row × 8-col C tile (rows stride
// elements apart) from eight A row fragments (rows lda elements apart)
// and a packed kc×8 B tile, storing only the columns selected by the
// low 8 bits of mask.
//
//go:noescape
func mulTile8x8AVX512(c *float64, stride int, a *float64, lda int, bt *float64, kc int, mask uint64)

// mulTile1x8AVX512 is the single-row tail of mulTile8x8AVX512.
//
//go:noescape
func mulTile1x8AVX512(c, a0, bt *float64, kc int, mask uint64)

// gfAxpyAVX512 computes dst[0:n] += c·src[0:n] over GF(2³¹−1) in 8-lane
// 64-bit vectors (Mersenne folding); n must be a multiple of 8.
//
//go:noescape
func gfAxpyAVX512(dst *uint32, c uint32, src *uint32, n int)

// gfTile8IFMA computes one A row against eight x lanes taken from the
// pre-widened pack (see gfPackLanes; stride is the byte distance between
// column blocks): dst[l] = a · x_l over GF(2³¹−1) for the lanes selected
// by the low 8 bits of mask. It needs AVX512-IFMA (see gfTileIFMA).
//
//go:noescape
func gfTile8IFMA(dst, a *uint32, cols int, pack *uint64, stride int, mask uint64)

// gfDot4AVX512 computes dst[t] = s · o_t over GF(2³¹−1) (all operands n
// long) for the t selected by the low 4 bits of mask; unselected o_t
// must still point at n readable elements.
//
//go:noescape
func gfDot4AVX512(dst, s, o0, o1, o2, o3 *uint32, n int, mask uint64)

// dotVec512 sums the vectorized prefix in the assembly kernel, then folds
// the up-to-7-element tail in sequentially — one fixed order per length.
//
//s2c2:noalloc
func dotVec512(x, y []float64) float64 {
	n := len(x)
	y = y[:n]
	var s float64
	if nv := n &^ 7; nv > 0 {
		s = dotAVX512(&x[0], &y[0], nv)
	}
	return dotTail(s, x, y, n&^7)
}

// axpyVec512 must be elementwise position-independent: callers band flat
// slices at arbitrary offsets and the results must be bit-identical to
// one unbanded call. The assembly lanes use fused multiply-adds, so the
// scalar tail uses math.FMA for the identical single rounding.
//
//s2c2:noalloc
func axpyVec512(a float64, x, y []float64) {
	n := len(y)
	x = x[:n]
	if nv := n &^ 7; nv > 0 {
		axpyAVX512(a, &x[0], &y[0], nv)
	}
	for i := n &^ 7; i < n; i++ {
		y[i] = math.FMA(a, x[i], y[i])
	}
}

// matVecRangeVec512 sweeps four rows per dot4AVX512 call, which loads
// each chunk of x once for all four, then folds each row's up-to-7-column
// tail in as dotVec512 does: every row is bit-identical to dotVec512 on
// that row. Remainder rows, and rows shorter than 8, take dotVec512.
//
//s2c2:noalloc
func matVecRangeVec512(dst, a []float64, cols int, x []float64, lo, hi int) {
	i := lo
	if nv := cols &^ 7; nv > 0 {
		x = x[:cols]
		for ; i+4 <= hi; i += 4 {
			out := dst[i-lo : i-lo+4]
			dot4AVX512(&out[0], &a[i*cols : (i+4)*cols][0], cols, &x[0], nv)
			for r := range out {
				out[r] = dotTail(out[r], a[(i+r)*cols:(i+r+1)*cols], x, nv)
			}
		}
	}
	for ; i < hi; i++ {
		dst[i-lo] = dotVec512(a[i*cols:(i+1)*cols], x)
	}
}

// matMulAccRangeAVX512 accumulates rows [lo, hi) of A·B into dst with the
// same kcBlock×ncBlock cache blocking and packed 8-column tiles as the
// AVX2 backend, feeding the 8×8 ZMM FMA micro-kernel. Edge tiles (final
// panel columns when nc is not a multiple of 8) pass a (1<<w)-1 column
// mask so the kernel's opmasked C accumulate/store never touches memory
// past the row end — no zero-padded scratch tile. Each C row's FMA chain
// is identical in the 8-row and 1-row kernels, so banding at any row
// boundary is bit-identical on this backend.
//
//s2c2:noalloc
func matMulAccRangeAVX512(dst, a []float64, k int, b []float64, n, lo, hi int) {
	if hi <= lo || n == 0 || k == 0 {
		return
	}
	buf := GetBuf(kcBlock * ncBlock)
	defer buf.Put()
	for kk := 0; kk < k; kk += kcBlock {
		kc := min(kcBlock, k-kk)
		for jj := 0; jj < n; jj += ncBlock {
			nc := min(ncBlock, n-jj)
			packPanel8(buf.F, b, n, kk, kc, jj, nc)
			tiles := (nc + nrColsAVX512 - 1) / nrColsAVX512
			i := lo
			for ; i+mrRowsAVX512 <= hi; i += mrRowsAVX512 {
				for t := 0; t < tiles; t++ {
					bt := &buf.F[t*kc*nrColsAVX512]
					j := jj + t*nrColsAVX512
					mask := uint64(fullTileMask)
					if w := nc - t*nrColsAVX512; w < nrColsAVX512 {
						mask = 1<<uint(w) - 1
					}
					mulTile8x8AVX512(&dst[i*n+j], n, &a[i*k+kk], k, bt, kc, mask)
				}
			}
			for ; i < hi; i++ {
				for t := 0; t < tiles; t++ {
					bt := &buf.F[t*kc*nrColsAVX512]
					j := jj + t*nrColsAVX512
					mask := uint64(fullTileMask)
					if w := nc - t*nrColsAVX512; w < nrColsAVX512 {
						mask = 1<<uint(w) - 1
					}
					mulTile1x8AVX512(&dst[i*n+j], &a[i*k+kk], bt, kc, mask)
				}
			}
		}
	}
}

// matVecRangeBatchVec512 treats the batch as a skinny mat-mul against the
// implicit cols×w right-hand side whose column l is x_l, like the AVX2
// backend but with the 8-row ZMM micro-kernel and an opmasked lane tail:
// lane groups narrower than eight write through a (1<<lw)-1 column mask
// instead of a scratch tile. Each output element's accumulation order is
// the micro-kernel's — fixed, and band-invariant because per-row chains
// are identical in both micro-kernels.
//
//s2c2:noalloc
func matVecRangeBatchVec512(dst, a []float64, cols int, xs []float64, w, lo, hi int) {
	if hi <= lo || w <= 0 {
		return
	}
	Zero(dst[:(hi-lo)*w])
	if cols == 0 {
		return
	}
	buf := GetBuf(kcBlock * nrColsAVX512)
	defer buf.Put()
	for l0 := 0; l0 < w; l0 += nrColsAVX512 {
		lw := min(nrColsAVX512, w-l0)
		mask := uint64(1)<<uint(lw) - 1
		for kk := 0; kk < cols; kk += kcBlock {
			kc := min(kcBlock, cols-kk)
			packXsTile8(buf.F, xs, cols, l0, lw, kk, kc)
			i := lo
			for ; i+mrRowsAVX512 <= hi; i += mrRowsAVX512 {
				mulTile8x8AVX512(&dst[(i-lo)*w+l0], w, &a[i*cols+kk], cols, &buf.F[0], kc, mask)
			}
			for ; i < hi; i++ {
				mulTile1x8AVX512(&dst[(i-lo)*w+l0], &a[i*cols+kk], &buf.F[0], kc, mask)
			}
		}
	}
}

// gfDot4Vec512 computes dst[t] = shared · others[t*stride : t*stride+n]
// for t < len(dst) ≤ 4, n = len(shared) > 0, through the shared-operand
// kernel: the shared chunk is widened once for all four products, folds
// are lazy (one per three column blocks) and the column tail is opmasked.
// Missing operands alias the first so the kernel's loads stay in bounds;
// their sums are masked off at the store.
//
//s2c2:noalloc
func gfDot4Vec512(dst, shared, others []uint32, stride int) {
	n := len(shared)
	o := [4]*uint32{&others[0], &others[0], &others[0], &others[0]}
	for t := 1; t < len(dst); t++ {
		o[t] = &others[t*stride : t*stride+n][0]
	}
	gfDot4AVX512(&dst[0], &shared[0], o[0], o[1], o[2], o[3], n, 1<<uint(len(dst))-1)
}

// gfMatVecVec512 tiles four rows per sweep of x: the widened x chunk is
// shared by the four row products. Exact — identical to the generic
// backend for any [lo, hi).
//
//s2c2:noalloc
func gfMatVecVec512(dst, a []uint32, cols int, x []uint32, lo, hi int) {
	if cols == 0 {
		clear(dst[:max(hi-lo, 0)])
		return
	}
	for i := lo; i < hi; i += 4 {
		n := min(4, hi-i)
		gfDot4Vec512(dst[i-lo:i-lo+n], x[:cols], a[i*cols:], cols)
	}
}

// gfTileIFMA reports whether gfMatVecBatchVec512 runs its lane tiles on
// gfTile8IFMA. The CPU probe runs once at init; tests clear the flag to
// drive the pack-free route an AVX-512 CPU without IFMA takes.
var gfTileIFMA = cpuHasIFMA()

// gfMatVecBatchVec512 is the lane-fused batch sweep: every 8-column chunk
// of an A row is widened once and multiplied against a whole tile of
// eight x lanes, read pre-widened from a per-call pack, with the tile's
// sixteen accumulators (the low and high 52-bit product halves of each
// lane) resident in ZMM registers across the row and no Mersenne fold
// inside rows below 32 760 columns. A final group of five to seven
// lanes runs as an opmasked tile; narrower groups take the pack-free
// shared-operand kernel, four lanes a call. A tile costs its eight lanes
// whatever the mask (17 vector µops and 9 loads a column block) and a
// shared-operand call its four (≈ 4¼ vector µops per lane), so the tile
// wins once the group needs two calls (BenchmarkGFMatVecBatch's w5 rows).
// Without IFMA every lane group takes the shared-operand kernel. Modular
// reduction is order-independent, so every output is exactly the
// canonical inner product — identical to the generic backend.
//
//s2c2:noalloc
func gfMatVecBatchVec512(dst, a []uint32, cols int, xs []uint32, w, lo, hi int) {
	if hi <= lo || w <= 0 {
		return
	}
	if cols == 0 {
		clear(dst[:(hi-lo)*w])
		return
	}
	tiled := 0 // lanes served by 8-lane tiles
	if gfTileIFMA {
		tiled = w &^ 7
		if w-tiled >= 5 {
			tiled += 8
		}
	}
	var pack []uint64
	if tiled > 0 {
		buf := GetBuf(gfPackLen(cols, tiled))
		defer buf.Put()
		pack = gfPackLanes(buf, xs, cols, min(w, tiled), tiled)
	}
	for i := lo; i < hi; i++ {
		row := a[i*cols : (i+1)*cols]
		out := dst[(i-lo)*w : (i-lo+1)*w]
		l := 0
		for ; l < tiled; l += 8 {
			gfTile8IFMA(&out[l], &row[0], cols, &pack[l*8], tiled*64, 1<<uint(min(8, w-l))-1)
		}
		for ; l < w; l += 4 {
			gfDot4Vec512(out[l:min(l+4, w)], row, xs[l*cols:], cols)
		}
	}
}

//s2c2:noalloc
func gfAxpyVec512(dst []uint32, c uint32, src []uint32) {
	src = src[:len(dst)]
	if nv := len(dst) &^ 7; nv > 0 {
		gfAxpyAVX512(&dst[0], c, &src[0], nv)
	}
	for i := len(dst) &^ 7; i < len(dst); i++ {
		dst[i] = gfMulAdd31(dst[i], c, src[i])
	}
}
