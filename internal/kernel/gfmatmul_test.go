package kernel

import (
	"math/rand"
	"testing"
)

// Tests for the exact GF(2³¹−1) mat-mul accumulate the GF decode runs
// (rows of A·B as k GFAxpyMod31 sweeps) and its masked-tail paths on the
// AVX-512 backend: cross-backend exactness over shapes straddling every
// 8-lane boundary, fold-bound stress at c = P−1, a fuzz harness, and the
// gated avx512 decode-solve speedup test.

// gfMatMulAcc accumulates rows [lo, hi) of A·B over GF(2³¹−1) into
// band-relative dst (dst[(i-lo)*n+j] += Σ_t A[i,t]·B[t,j]) as k
// GFAxpyMod31 sweeps per row, on the dispatched backend.
func gfMatMulAcc(dst, a []uint32, k int, b []uint32, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		for t := 0; t < k; t++ {
			GFAxpyMod31(dst[(i-lo)*n:(i-lo+1)*n], a[i*k+t], b[t*n:(t+1)*n])
		}
	}
}

// gfMatMulRef is the scalar reference for gfMatMulAcc: per-element
// canonical fold chain, band-relative dst.
func gfMatMulRef(dst, a []uint32, k int, b []uint32, n, lo, hi int) {
	for i := lo; i < hi; i++ {
		for j := 0; j < n; j++ {
			acc := dst[(i-lo)*n+j]
			for t := 0; t < k; t++ {
				acc = gfMulAdd31(acc, a[i*k+t], b[t*n+j])
			}
			dst[(i-lo)*n+j] = acc
		}
	}
}

// TestGFMatMulBackendsExact sweeps shapes covering every masked-tail
// residue (n ≡ 1..7 mod 8) and k from 0 to 40, with boundary values
// (0, 1, P−1) mixed into random data. Results must be exactly equal on
// every backend.
func TestGFMatMulBackendsExact(t *testing.T) {
	const p = uint32(p31)
	rng := rand.New(rand.NewSource(61))
	shapes := [][3]int{ // rows, k, n
		{1, 1, 1}, {2, 3, 2}, {3, 2, 3}, {5, 4, 4}, {4, 5, 5}, {3, 7, 6},
		{2, 8, 7}, {7, 9, 8}, {8, 12, 9}, {9, 13, 15}, {5, 16, 16},
		{6, 17, 17}, {12, 12, 31}, {13, 11, 33}, {3, 40, 100},
		{1, 0, 4}, {1, 4, 0}, {0, 4, 4},
	}
	elems := []uint32{0, 1, 2, p - 1, p - 2, p / 2}
	for _, s := range shapes {
		rows, k, n := s[0], s[1], s[2]
		a := make([]uint32, rows*k)
		b := make([]uint32, k*n)
		for i := range a {
			if i < len(elems) {
				a[i] = elems[i]
			} else {
				a[i] = rng.Uint32() % p
			}
		}
		for i := range b {
			if i < len(elems) {
				b[i] = elems[len(elems)-1-i]
			} else {
				b[i] = rng.Uint32() % p
			}
		}
		dst0 := make([]uint32, rows*n)
		for i := range dst0 {
			dst0[i] = rng.Uint32() % p
		}
		want := append([]uint32(nil), dst0...)
		gfMatMulRef(want, a, k, b, n, 0, rows)
		for _, backend := range Backends() {
			withBackend(t, backend, func() {
				got := append([]uint32(nil), dst0...)
				gfMatMulAcc(got, a, k, b, n, 0, rows)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("backend=%s rows=%d k=%d n=%d i=%d: %d want %d",
							backend, rows, k, n, i, got[i], want[i])
					}
				}
				// Band splits must hit the same values (band-relative dst).
				if rows > 2 {
					band := append([]uint32(nil), dst0[n:(rows-1)*n]...)
					gfMatMulAcc(band, a, k, b, n, 1, rows-1)
					for i := range band {
						if band[i] != want[n+i] {
							t.Fatalf("backend=%s rows=%d k=%d n=%d: band row value %d want %d",
								backend, rows, k, n, band[i], want[n+i])
						}
					}
				}
			})
		}
	}
}

// TestGFMatMulFoldBounds drives the axpy kernels' fold chain as hard as
// the field allows: every operand P−1 over a long shared dimension, where
// each sweep adds the maximal 62-bit product to a P−1 accumulator. Any
// fold-chain overflow shows up as an exactness break against the scalar
// reference.
func TestGFMatMulFoldBounds(t *testing.T) {
	const p = uint32(p31)
	for _, n := range []int{1, 3, 7, 8, 9, 16, 23} {
		for _, k := range []int{1, 7, 64, 257, 1000} {
			rows := 2
			a := make([]uint32, rows*k)
			b := make([]uint32, k*n)
			for i := range a {
				a[i] = p - 1
			}
			for i := range b {
				b[i] = p - 1
			}
			dst0 := make([]uint32, rows*n)
			for i := range dst0 {
				dst0[i] = p - 1
			}
			want := append([]uint32(nil), dst0...)
			gfMatMulRef(want, a, k, b, n, 0, rows)
			for _, backend := range Backends() {
				withBackend(t, backend, func() {
					got := append([]uint32(nil), dst0...)
					gfMatMulAcc(got, a, k, b, n, 0, rows)
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("backend=%s k=%d n=%d i=%d: %d want %d (fold bound)",
								backend, k, n, i, got[i], want[i])
						}
					}
				})
			}
		}
	}
}

func FuzzGFMatMulBackends(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(4), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(12), uint8(12), uint8(9), []byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, r8, k8, n8 uint8, data []byte) {
		rows, k, n := int(r8%12), int(k8%16), int(n8%24)
		if len(data) < 4 {
			t.Skip()
		}
		const p = uint32(p31)
		at := func(i int) uint32 {
			j := (i * 4) % (len(data) - 3)
			return (uint32(data[j]) | uint32(data[j+1])<<8 | uint32(data[j+2])<<16 | uint32(data[j+3])<<24) % p
		}
		a := make([]uint32, rows*k)
		b := make([]uint32, k*n)
		dst0 := make([]uint32, rows*n)
		for i := range a {
			a[i] = at(i)
		}
		for i := range b {
			b[i] = at(i + len(a))
		}
		for i := range dst0 {
			dst0[i] = at(i + len(a) + len(b))
		}
		want := append([]uint32(nil), dst0...)
		gfMatMulRef(want, a, k, b, n, 0, rows)
		for _, backend := range Backends() {
			withBackend(t, backend, func() {
				got := append([]uint32(nil), dst0...)
				gfMatMulAcc(got, a, k, b, n, 0, rows)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("backend=%s rows=%d k=%d n=%d i=%d: %d != ref %d", backend, rows, k, n, i, got[i], want[i])
					}
				}
			})
		}
	})
}

// floatsEquivalent treats NaN==NaN and exact-Inf as matches, everything
// else within tol.
func floatsEquivalent(got, want, tol float64) bool {
	switch {
	case want != want: // NaN
		return got != got
	case want > 1e300 || want < -1e300:
		return got == want
	default:
		d := got - want
		return d <= tol && d >= -tol
	}
}

// skipUnlessAVX512Dispatched gates the avx512-vs-avx2 acceptance tests:
// without avx512 dispatched there is no 512-bit path to demonstrate.
func skipUnlessAVX512Dispatched(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	if ActiveBackend() != "avx512" {
		t.Skipf("dispatched backend is %q, not avx512 (backends: %v)", ActiveBackend(), Backends())
	}
}

// TestGFDecodeSolveAVX512Speedup asserts the exact-path acceptance
// criterion: the avx512 GF axpy sweeps of a decode solve at least 1.5×
// over the scalar backend on the decode-solve shape (a k×k inverse
// applied to every row-group right-hand side at once, one gfMatMulAcc).
func TestGFDecodeSolveAVX512Speedup(t *testing.T) {
	skipUnlessAVX512Dispatched(t)
	const k, n = 12, 4096
	a := make([]uint32, k*k)
	b := make([]uint32, k*n)
	dst := make([]uint32, k*n)
	for i := range a {
		a[i] = (uint32(i) * 2654435761) % uint32(p31)
	}
	for i := range b {
		b[i] = (uint32(i) * 40503) % uint32(p31)
	}
	solve := func() { gfMatMulAcc(dst, a, k, b, n, 0, k) }
	scalar, vector := bestOfAlternating(5, onBackend(t, "generic", 20, solve), onBackend(t, "avx512", 20, solve))
	t.Logf("GF decode solve %dx%d·%dx%d: generic %v, avx512 %v (%.2fx)",
		k, k, k, n, scalar, vector, float64(scalar)/float64(vector))
	if float64(scalar) < 1.5*float64(vector) {
		t.Fatalf("avx512 GF decode solve only %.2fx over scalar, want >= 1.5x", float64(scalar)/float64(vector))
	}
}
