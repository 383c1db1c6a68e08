// Package kernel is the shared compute substrate of the S2C2 stack: flat
// float64 kernels (dot, axpy, mat-vec, batched mat-vec), the
// GF(2³¹−1) mul-accumulate lane kernel, a persistent sized worker pool for
// band-parallel execution, and sync.Pool-backed workspace buffers.
//
// Everything above this package — mat, gf, coding, sim, rpc, workloads —
// routes its hot loops through these kernels, so a performance improvement
// here lifts the whole stack at once.
//
// # Backends
//
// Every kernel dispatches through a backend selected once at init:
// "generic" is portable scalar Go and the reference semantics; "avx2"
// (amd64, no noasm tag, CPU with AVX2+FMA) uses hand-written assembly with
// 256-bit FMA accumulators; "avx512" (additionally AVX512F/DQ/BW/VL with
// OS-enabled OPMASK/ZMM state) uses 512-bit accumulators with
// opmask-register tail handling in place of scratch-tile padding.
// Selection is observable via ActiveBackend and
// forceable via the S2C2_KERNEL_BACKEND environment variable or
// SetBackend. Each backend uses a fixed accumulation order, so results are
// bit-identical run to run *within* a backend; across backends, float64
// results agree within accumulated rounding tolerance and GF results agree
// exactly.
//
// Kernels operate on raw row-major slices and perform no argument
// validation; callers (normally package mat) own shape checking. All
// kernels are safe for concurrent use on disjoint destinations.
package kernel

// Register and cache blocking of the vector backends' batch sweep
// (matVecRangeBatch): a multi-row tile kernel covers mrRows rows on the
// AVX2 backend (the AVX-512 tile takes eight), and the x-vectors are
// packed kcBlock columns at a time into one kcBlock×8 tile, 16 KiB, which
// stays L1-resident across the rows of a band.
const (
	mrRows  = 4   // AVX2 tile rows
	kcBlock = 256 // packed x-tile columns (shared dim block)
)

// Dot returns the inner product of x and y (lengths must match).
//
//s2c2:noalloc
func Dot(x, y []float64) float64 {
	return active.Load().dot(x, y)
}

// Axpy computes y += a*x elementwise (lengths must match). a == 0 is a
// no-op on every backend (NaN/Inf in x are not propagated).
//
//s2c2:noalloc
func Axpy(a float64, x, y []float64) {
	if a == 0 {
		return
	}
	active.Load().axpy(a, x, y)
}

// Scale multiplies every element of x by a in place.
//
//s2c2:noalloc
func Scale(a float64, x []float64) {
	for i := range x {
		x[i] *= a
	}
}

// Zero clears x.
//
//s2c2:noalloc
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// MatVec computes dst = A·x for row-major A (rows×cols).
//
//s2c2:noalloc
func MatVec(dst, a []float64, rows, cols int, x []float64) {
	active.Load().matVecRange(dst, a, cols, x, 0, rows)
}

// MatVecRange computes dst[i-lo] = (A·x)[i] for i in [lo, hi).
// dst has length hi-lo.
//
//s2c2:noalloc
func MatVecRange(dst, a []float64, cols int, x []float64, lo, hi int) {
	active.Load().matVecRange(dst, a, cols, x, lo, hi)
}

// MatVecRangeBatch computes dst[(i-lo)*w+l] = (A·x_l)[i] for i in
// [lo, hi): one sweep of A serving w x-vectors. xs holds the vectors
// concatenated (x_l at xs[l*cols : (l+1)*cols]); dst is row-major
// w-wide. Row bands are independent: splitting a range at any row
// boundary is bit-identical to the unbanded call on the same backend.
//
//s2c2:noalloc
func MatVecRangeBatch(dst, a []float64, cols int, xs []float64, w, lo, hi int) {
	active.Load().matVecRangeBatch(dst, a, cols, xs, w, lo, hi)
}

// GFAxpyMod31 computes dst[i] ← dst[i] + c·src[i] over GF(2³¹−1), the
// mul-accumulate lane kernel behind gf.Axpy. Inputs must be fully reduced
// (< 2³¹−1); lengths must match. Results are exact on every backend (this
// is modular arithmetic, not floating point).
//
//s2c2:noalloc
func GFAxpyMod31(dst []uint32, c uint32, src []uint32) {
	if c == 0 {
		return
	}
	active.Load().gfAxpy(dst, c, src)
}

// GFMatVecMod31 computes dst[i-lo] = (A·x)[i] over GF(2³¹−1) for i in
// [lo, hi), A row-major with cols columns — the dot-lane kernel behind
// gf.Matrix.MulVecRangeInto (worker compute, decode solves). Inputs must
// be fully reduced; results are exact and identical on every backend
// (modular reduction is order-independent).
//
//s2c2:noalloc
func GFMatVecMod31(dst, a []uint32, cols int, x []uint32, lo, hi int) {
	active.Load().gfMatVec(dst, a, cols, x, lo, hi)
}

// GFMatVecBatchMod31 is GFMatVecMod31 over w concatenated x-vectors with
// row-major w-wide output (layouts as in MatVecRangeBatch). Exact on every
// backend.
//
//s2c2:noalloc
func GFMatVecBatchMod31(dst, a []uint32, cols int, xs []uint32, w, lo, hi int) {
	active.Load().gfMatVecBatch(dst, a, cols, xs, w, lo, hi)
}

// ATDiagBRange accumulates rows [lo, hi) of Aᵀ·diag(d)·B into dst, the
// partial bilinear kernel a polynomial-coded worker runs. A is m×ka, B is
// m×nb, dst is (hi-lo)×nb row-major and is overwritten.
//
//s2c2:noalloc
func ATDiagBRange(dst, a, d, b []float64, m, ka, nb, lo, hi int) {
	Zero(dst[:(hi-lo)*nb])
	bk := active.Load()
	for i := 0; i < m; i++ {
		di := d[i]
		if di == 0 {
			continue
		}
		arow := a[i*ka : (i+1)*ka]
		brow := b[i*nb : (i+1)*nb]
		for p := lo; p < hi; p++ {
			s := di * arow[p]
			if s == 0 {
				continue
			}
			bk.axpy(s, brow, dst[(p-lo)*nb:(p-lo+1)*nb])
		}
	}
}
