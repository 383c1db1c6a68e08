package kernel

// The generic backend: portable scalar Go implementations of every
// dispatched micro-kernel. This is the reference semantics — vector
// backends are validated against it — and the only backend under the
// noasm build tag or on CPUs without the required ISA extensions.

var genericBackend = &backendImpl{
	name:             "generic",
	dot:              dotGeneric,
	axpy:             axpyGeneric,
	matVecRange:      matVecRangeGeneric,
	matVecRangeBatch: matVecRangeBatchGeneric,
	gfAxpy:           gfAxpyGeneric,
	gfMatVec:         gfMatVecGeneric,
	gfMatVecBatch:    gfMatVecBatchGeneric,
	chunkFlops:       16 * 1024,
}

// dotGeneric uses four independent accumulators to expose instruction-level
// parallelism; the summation order therefore differs from a sequential
// loop by O(ε), but is fixed for this backend.
//
//s2c2:noalloc
func dotGeneric(x, y []float64) float64 {
	n := len(x)
	y = y[:n]
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < n; i++ {
		s0 += x[i] * y[i]
	}
	return (s0 + s1) + (s2 + s3)
}

//s2c2:noalloc
func axpyGeneric(a float64, x, y []float64) {
	x = x[:len(y)]
	for i, v := range x {
		y[i] += a * v
	}
}

//s2c2:noalloc
func matVecRangeGeneric(dst, a []float64, cols int, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		dst[i-lo] = dotGeneric(a[i*cols:(i+1)*cols], x)
	}
}

// matVecRangeBatchGeneric serves all w lanes from one pass over each A
// row (the row stays cache-hot across lanes). Lane l of any row uses
// exactly dotGeneric's accumulation order, so a w-lane batch is
// bit-identical to w single-x sweeps on this backend.
//
//s2c2:noalloc
func matVecRangeBatchGeneric(dst, a []float64, cols int, xs []float64, w, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := a[i*cols : (i+1)*cols]
		out := dst[(i-lo)*w : (i-lo+1)*w]
		for l := 0; l < w; l++ {
			out[l] = dotGeneric(row, xs[l*cols:(l+1)*cols])
		}
	}
}

// p31 is the Mersenne prime 2³¹−1, kernel-side copy of gf.P (package gf
// routes its hot loop here; kernel cannot import it back).
const p31 = 1<<31 - 1

// gfMulAdd31 returns d + c·s mod 2³¹−1 using Mersenne folding instead of a
// hardware divide: for x < 2⁶³, x ≡ (x >> 31) + (x & p31) (mod p31), and
// two folds bring any d + c·s product into [0, p31+3], leaving one
// conditional subtract.
func gfMulAdd31(d, c, s uint32) uint32 {
	x := uint64(d) + uint64(c)*uint64(s) // < 2³¹ + (p31−1)² < 2⁶³
	x = (x >> 31) + (x & p31)            // < 2³³
	x = (x >> 31) + (x & p31)            // < p31 + 4
	if x >= p31 {
		x -= p31
	}
	return uint32(x)
}

// gfDotGeneric returns the canonical inner product of row and x over
// GF(2³¹−1), folding after every accumulate: the running sum stays below
// 2³³, so the next 62-bit product cannot overflow the 64-bit accumulator.
// Modular reduction is order- and grouping-independent, so every backend's
// fused gfMatVec/gfMatVecBatch tiles return these exact values; this is
// the reference they are tested against and the generic backend's
// remainder path.
//
//s2c2:noalloc
func gfDotGeneric(row, x []uint32) uint32 {
	x = x[:len(row)]
	var acc uint64
	for j, v := range row {
		acc += uint64(v) * uint64(x[j]) // < 2³³ + 2⁶² < 2⁶³
		acc = (acc >> 31) + (acc & p31) // < 2³³
	}
	acc = (acc >> 31) + (acc & p31) // < p31 + 4
	if acc >= p31 {
		acc -= p31
	}
	return uint32(acc)
}

// gfReduce64 brings any 64-bit accumulator to its canonical residue: two
// Mersenne folds (< 2³³ + 2³¹, then < 2³¹ + 8) and one conditional
// subtract.
func gfReduce64(acc uint64) uint32 {
	acc = (acc >> 31) + (acc & p31)
	acc = (acc >> 31) + (acc & p31)
	if acc >= p31 {
		acc -= p31
	}
	return uint32(acc)
}

// gfDot4Generic computes out[t] = shared · others[t*stride : t*stride+n]
// for t < 4, n = len(shared): four inner products that load (and widen)
// each shared element once. Folds are lazy — an accumulator that has just
// been folded is below 2³³ + 2³¹ and each product below 2⁶², so three
// products fit before the next fold (3·2⁶² + 2³³ + 2³¹ < 2⁶⁴); the up to
// two trailing columns ride the same budget.
//
//s2c2:noalloc
func gfDot4Generic(out, shared, others []uint32, stride int) {
	n := len(shared)
	o0 := others[:n]
	o1 := others[stride : stride+n]
	o2 := others[2*stride : 2*stride+n]
	o3 := others[3*stride : 3*stride+n]
	var a0, a1, a2, a3 uint64
	j := 0
	for ; j+3 <= n; j += 3 {
		s0, s1, s2 := uint64(shared[j]), uint64(shared[j+1]), uint64(shared[j+2])
		a0 += s0*uint64(o0[j]) + s1*uint64(o0[j+1]) + s2*uint64(o0[j+2])
		a1 += s0*uint64(o1[j]) + s1*uint64(o1[j+1]) + s2*uint64(o1[j+2])
		a2 += s0*uint64(o2[j]) + s1*uint64(o2[j+1]) + s2*uint64(o2[j+2])
		a3 += s0*uint64(o3[j]) + s1*uint64(o3[j+1]) + s2*uint64(o3[j+2])
		a0 = (a0 >> 31) + (a0 & p31)
		a1 = (a1 >> 31) + (a1 & p31)
		a2 = (a2 >> 31) + (a2 & p31)
		a3 = (a3 >> 31) + (a3 & p31)
	}
	for ; j < n; j++ {
		s := uint64(shared[j])
		a0 += s * uint64(o0[j])
		a1 += s * uint64(o1[j])
		a2 += s * uint64(o2[j])
		a3 += s * uint64(o3[j])
	}
	out[0], out[1], out[2], out[3] = gfReduce64(a0), gfReduce64(a1), gfReduce64(a2), gfReduce64(a3)
}

// gfMatVecGeneric tiles four rows per sweep of x; the last one to three
// rows take the reference dot.
//
//s2c2:noalloc
func gfMatVecGeneric(dst, a []uint32, cols int, x []uint32, lo, hi int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		gfDot4Generic(dst[i-lo:i-lo+4], x[:cols], a[i*cols:], cols)
	}
	for ; i < hi; i++ {
		dst[i-lo] = gfDotGeneric(a[i*cols:(i+1)*cols], x)
	}
}

// gfMatVecBatchGeneric is the portable lane-fused sweep: each A row is
// walked once per tile of four x lanes (the row element is loaded once
// for the four products, folds are lazy), the last one to three lanes by
// the reference dot. Exact — lane l equals gfDotGeneric(row, x_l).
//
//s2c2:noalloc
func gfMatVecBatchGeneric(dst, a []uint32, cols int, xs []uint32, w, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := a[i*cols : (i+1)*cols]
		out := dst[(i-lo)*w : (i-lo+1)*w]
		l := 0
		for ; l+4 <= w; l += 4 {
			gfDot4Generic(out[l:l+4], row, xs[l*cols:], cols)
		}
		for ; l < w; l++ {
			out[l] = gfDotGeneric(row, xs[l*cols:(l+1)*cols])
		}
	}
}

// gfAxpyGeneric is the scalar Mersenne-folded mul-accumulate, unrolled
// over four independent lanes.
//
//s2c2:noalloc
func gfAxpyGeneric(dst []uint32, c uint32, src []uint32) {
	src = src[:len(dst)]
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		d0 := gfMulAdd31(dst[i], c, src[i])
		d1 := gfMulAdd31(dst[i+1], c, src[i+1])
		d2 := gfMulAdd31(dst[i+2], c, src[i+2])
		d3 := gfMulAdd31(dst[i+3], c, src[i+3])
		dst[i], dst[i+1], dst[i+2], dst[i+3] = d0, d1, d2, d3
	}
	for ; i < len(dst); i++ {
		dst[i] = gfMulAdd31(dst[i], c, src[i])
	}
}
