package kernel

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// Backend seam tests: selection/override mechanics, cross-backend
// equivalence (vector kernels vs. the generic reference — within
// accumulated rounding for float64, exactly for GF), NaN/Inf passthrough,
// and the gated vector-speedup acceptance tests.

// withBackend runs fn on the named backend and restores the previous one.
func withBackend(t testing.TB, name string, fn func()) {
	t.Helper()
	prev := ActiveBackend()
	if err := SetBackend(name); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := SetBackend(prev); err != nil {
			t.Fatal(err)
		}
	}()
	fn()
}

// vectorBackendNames lists the non-generic backends compiled in and
// runnable on this CPU.
func vectorBackendNames() []string {
	var out []string
	for _, name := range Backends() {
		if name != "generic" {
			out = append(out, name)
		}
	}
	return out
}

func TestBackendSelectionObservable(t *testing.T) {
	names := Backends()
	t.Logf("kernel backends: available=%v active=%s", names, ActiveBackend())
	t.Logf("avx512 GF batch sweep route: %s", gfTileRouteNote())
	found := false
	for _, n := range names {
		if n == ActiveBackend() {
			found = true
		}
	}
	if !found {
		t.Fatalf("active backend %q not in Backends() %v", ActiveBackend(), names)
	}
	if err := SetBackend("no-such-backend"); err == nil {
		t.Fatal("SetBackend with an unknown name must fail")
	}
	prev := ActiveBackend()
	for _, n := range names {
		if err := SetBackend(n); err != nil {
			t.Fatalf("SetBackend(%q): %v", n, err)
		}
		if ActiveBackend() != n {
			t.Fatalf("ActiveBackend() = %q after SetBackend(%q)", ActiveBackend(), n)
		}
	}
	if err := SetBackend(prev); err != nil {
		t.Fatal(err)
	}
}

// dotRef is the plain sequential inner product every backend's Dot must
// approximate (backends reorder the summation, so comparison is within
// accumulated rounding).
func dotRef(x, y []float64) float64 {
	var s float64
	for i := range x {
		s += x[i] * y[i]
	}
	return s
}

func TestDotBackendsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	lengths := []int{0, 1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 23, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1001}
	for _, n := range lengths {
		x, y := randSlice(n, rng), randSlice(n, rng)
		want := dotRef(x, y)
		for _, backend := range Backends() {
			withBackend(t, backend, func() {
				got := Dot(x, y)
				if math.Abs(got-want) > 1e-12*float64(n+1) {
					t.Errorf("backend=%s n=%d: Dot=%v ref=%v", backend, n, got, want)
				}
			})
		}
	}
}

func TestAxpyBackendsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range []int{0, 1, 3, 4, 7, 8, 9, 15, 16, 17, 33, 100, 257} {
		for _, a := range []float64{0, 1, -0.5, 3.25} {
			x, y0 := randSlice(n, rng), randSlice(n, rng)
			want := make([]float64, n)
			for i := range want {
				want[i] = y0[i] + a*x[i]
			}
			for _, backend := range Backends() {
				withBackend(t, backend, func() {
					y := append([]float64(nil), y0...)
					Axpy(a, x, y)
					for i := range y {
						if math.Abs(y[i]-want[i]) > 1e-12 {
							t.Errorf("backend=%s n=%d a=%v i=%d: %v want %v", backend, n, a, i, y[i], want[i])
						}
					}
				})
			}
		}
	}
}

// TestAxpyBackendsBandInvariant pins the determinism contract banded
// callers rely on: splitting one Axpy into arbitrary sub-slices must be
// bit-identical to the unbanded call on the same backend (parallel encode
// compares band-parallel against serial results exactly).
func TestAxpyBackendsBandInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	const n = 103
	x, y0 := randSlice(n, rng), randSlice(n, rng)
	for _, backend := range Backends() {
		withBackend(t, backend, func() {
			whole := append([]float64(nil), y0...)
			Axpy(1.75, x, whole)
			for _, cut := range []int{1, 5, 8, 51, 96, 102} {
				banded := append([]float64(nil), y0...)
				Axpy(1.75, x[:cut], banded[:cut])
				Axpy(1.75, x[cut:], banded[cut:])
				for i := range banded {
					if banded[i] != whole[i] {
						t.Fatalf("backend=%s cut=%d i=%d: banded %v != whole %v (must be bit-identical)",
							backend, cut, i, banded[i], whole[i])
					}
				}
			}
		})
	}
}

func TestMatVecBackendsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	shapes := [][2]int{{1, 1}, {3, 7}, {4, 8}, {5, 9}, {7, 15}, {8, 16}, {9, 17}, {13, 31}, {16, 33}, {33, 129}, {5, 1000}}
	for _, s := range shapes {
		rows, cols := s[0], s[1]
		a, x := randSlice(rows*cols, rng), randSlice(cols, rng)
		want := make([]float64, rows)
		for i := 0; i < rows; i++ {
			want[i] = dotRef(a[i*cols:(i+1)*cols], x)
		}
		for _, backend := range Backends() {
			withBackend(t, backend, func() {
				got := make([]float64, rows)
				MatVec(got, a, rows, cols, x)
				if d := maxAbsDiff(got, want); d > 1e-11 {
					t.Errorf("backend=%s %dx%d: MatVec max diff %g", backend, rows, cols, d)
				}
				// Row ranges must agree with the full product on every backend.
				if rows > 2 {
					part := make([]float64, rows-2)
					MatVecRange(part, a, cols, x, 1, rows-1)
					if d := maxAbsDiff(part, got[1:rows-1]); d != 0 {
						t.Errorf("backend=%s %dx%d: MatVecRange differs from full rows by %g", backend, rows, cols, d)
					}
				}
			})
		}
	}
}

// TestMatVecRangeTilesMatchRowDot pins the multi-row mat-vec tiles —
// dot4AVX512 behind avx512's matVecRange, dot2AVX2 behind avx2's — to the
// single-row dot bit for bit: each tiled row keeps Dot's accumulators,
// tail order and reduction. Row counts cover every remainder modulo both
// tile heights, column counts every vector-tail length around the 8-, 16-
// and 32-element steps, and lo is odd so tiles start off any alignment.
// The generic backend (and every -tags noasm build) is the per-row
// reference itself.
func TestMatVecRangeTilesMatchRowDot(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	for _, cols := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 48, 63, 64, 240, 600, 1031} {
		const lo = 3
		a, x := randSlice((lo+19)*cols, rng), randSlice(cols, rng)
		for _, backend := range Backends() {
			withBackend(t, backend, func() {
				for rows := 0; rows <= 19; rows++ {
					got := make([]float64, rows)
					MatVecRange(got, a, cols, x, lo, lo+rows)
					for r := range got {
						want := Dot(a[(lo+r)*cols:(lo+r+1)*cols], x)
						if math.Float64bits(got[r]) != math.Float64bits(want) {
							t.Fatalf("backend=%s cols=%d rows=%d row %d: MatVecRange %v, Dot %v (must be bit-identical)",
								backend, cols, rows, r, got[r], want)
						}
					}
				}
			})
		}
	}
}

func TestDotNaNInfPassthroughBackends(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		x, y []float64
	}{
		{"nan-in-x", []float64{1, 2, nan, 4, 5, 6, 7, 8, 9}, []float64{1, 1, 1, 1, 1, 1, 1, 1, 1}},
		{"nan-in-tail", []float64{1, 2, 3, 4, 5, 6, 7, 8, nan}, []float64{1, 1, 1, 1, 1, 1, 1, 1, 1}},
		{"pos-inf", []float64{1, inf, 3, 4, 5, 6, 7, 8}, []float64{1, 1, 1, 1, 1, 1, 1, 1}},
		{"inf-minus-inf", []float64{inf, -inf, 3, 4, 5, 6, 7, 8}, []float64{1, 1, 1, 1, 1, 1, 1, 1}},
		{"neg-inf-tail", []float64{1, 2, 3, 4, 5, 6, 7, 8, -inf}, []float64{1, 1, 1, 1, 1, 1, 1, 1, 1}},
	}
	for _, tc := range cases {
		want := dotRef(tc.x, tc.y)
		for _, backend := range Backends() {
			withBackend(t, backend, func() {
				got := Dot(tc.x, tc.y)
				switch {
				case math.IsNaN(want):
					if !math.IsNaN(got) {
						t.Errorf("backend=%s %s: Dot=%v want NaN", backend, tc.name, got)
					}
				case math.IsInf(want, 0):
					if got != want {
						t.Errorf("backend=%s %s: Dot=%v want %v", backend, tc.name, got, want)
					}
				default:
					if math.Abs(got-want) > 1e-12 {
						t.Errorf("backend=%s %s: Dot=%v want %v", backend, tc.name, got, want)
					}
				}
			})
		}
	}
}

func TestAxpyNaNInfPassthroughBackends(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	x := []float64{1, nan, inf, -inf, 5, 6, 7, 8, nan, 2}
	y0 := []float64{1, 1, 1, 1, nan, inf, 1, 1, 1, 1}
	for _, backend := range Backends() {
		withBackend(t, backend, func() {
			y := append([]float64(nil), y0...)
			Axpy(2, x, y)
			for i := range y {
				want := y0[i] + 2*x[i]
				switch {
				case math.IsNaN(want):
					if !math.IsNaN(y[i]) {
						t.Errorf("backend=%s i=%d: %v want NaN", backend, i, y[i])
					}
				case math.IsInf(want, 0):
					if y[i] != want {
						t.Errorf("backend=%s i=%d: %v want %v", backend, i, y[i], want)
					}
				default:
					if math.Abs(y[i]-want) > 1e-12 {
						t.Errorf("backend=%s i=%d: %v want %v", backend, i, y[i], want)
					}
				}
			}
		})
	}
}

func TestGFAxpyBackendsExact(t *testing.T) {
	const p = uint32(p31)
	rng := rand.New(rand.NewSource(36))
	coeffs := []uint32{1, 2, 3, p - 1, p - 2, p / 2, 123456789}
	elems := []uint32{0, 1, 2, p - 1, p - 2, p / 2}
	vectors := vectorBackendNames()
	if len(vectors) == 0 {
		t.Skip("no vector backend available; generic is the reference itself")
	}
	for _, c := range coeffs {
		for n := 0; n <= 40; n++ {
			dst0 := make([]uint32, n)
			src := make([]uint32, n)
			for i := range src {
				if i < len(elems) {
					dst0[i], src[i] = elems[i], elems[(i+1)%len(elems)]
				} else {
					dst0[i], src[i] = rng.Uint32()%p, rng.Uint32()%p
				}
			}
			want := append([]uint32(nil), dst0...)
			withBackend(t, "generic", func() { GFAxpyMod31(want, c, src) })
			for _, backend := range vectors {
				withBackend(t, backend, func() {
					got := append([]uint32(nil), dst0...)
					GFAxpyMod31(got, c, src)
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("backend=%s c=%d n=%d i=%d: %d != generic %d", backend, c, n, i, got[i], want[i])
						}
					}
				})
			}
		}
	}
	// One long vector: every 8-lane block plus the scalar tail, random data.
	n := 4099
	dst0 := make([]uint32, n)
	src := make([]uint32, n)
	for i := range src {
		dst0[i], src[i] = rng.Uint32()%p, rng.Uint32()%p
	}
	want := append([]uint32(nil), dst0...)
	withBackend(t, "generic", func() { GFAxpyMod31(want, p-1, src) })
	for _, backend := range vectors {
		withBackend(t, backend, func() {
			got := append([]uint32(nil), dst0...)
			GFAxpyMod31(got, p-1, src)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("backend=%s long vector i=%d: %d != %d", backend, i, got[i], want[i])
				}
			}
		})
	}
}

// fuzzByteToFloat maps a fuzz byte to a float64 from a domain that
// includes NaN and both infinities but cannot overflow when summed.
func fuzzByteToFloat(b byte) float64 {
	switch b {
	case 0xFF:
		return math.NaN()
	case 0xFE:
		return math.Inf(1)
	case 0xFD:
		return math.Inf(-1)
	default:
		return (float64(b) - 126.5) / 25.3
	}
}

func FuzzDotBackends(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0xFF, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xFE, 0xFD, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			t.Skip()
		}
		n := len(data) / 2
		x := make([]float64, n)
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			x[i] = fuzzByteToFloat(data[i])
			y[i] = fuzzByteToFloat(data[n+i])
		}
		want := dotRef(x, y)
		for _, backend := range Backends() {
			withBackend(t, backend, func() {
				got := Dot(x, y)
				switch {
				case math.IsNaN(want):
					if !math.IsNaN(got) {
						t.Errorf("backend=%s: Dot=%v want NaN", backend, got)
					}
				case math.IsInf(want, 0):
					if got != want {
						t.Errorf("backend=%s: Dot=%v want %v", backend, got, want)
					}
				default:
					if math.Abs(got-want) > 1e-10*float64(n+1) {
						t.Errorf("backend=%s: Dot=%v want %v", backend, got, want)
					}
				}
			})
		}
	})
}

func FuzzGFAxpyBackends(f *testing.F) {
	f.Add(uint32(1), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint32(1<<31-2), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0xFE, 0xFF, 0xFF, 0x7F})
	f.Fuzz(func(t *testing.T, c uint32, data []byte) {
		if len(data) > 1<<12 {
			t.Skip()
		}
		const p = uint32(p31)
		c %= p
		n := len(data) / 8
		dst0 := make([]uint32, n)
		src := make([]uint32, n)
		for i := 0; i < n; i++ {
			dst0[i] = (uint32(data[i*8]) | uint32(data[i*8+1])<<8 | uint32(data[i*8+2])<<16 | uint32(data[i*8+3])<<24) % p
			src[i] = (uint32(data[i*8+4]) | uint32(data[i*8+5])<<8 | uint32(data[i*8+6])<<16 | uint32(data[i*8+7])<<24) % p
		}
		want := append([]uint32(nil), dst0...)
		withBackend(t, "generic", func() { GFAxpyMod31(want, c, src) })
		for _, backend := range vectorBackendNames() {
			withBackend(t, backend, func() {
				got := append([]uint32(nil), dst0...)
				GFAxpyMod31(got, c, src)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("backend=%s c=%d n=%d i=%d: %d != generic %d", backend, c, n, i, got[i], want[i])
					}
				}
			})
		}
	})
}

// timeRuns returns fn's mean duration over iters back-to-back runs.
func timeRuns(iters int, fn func()) time.Duration {
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return time.Since(start) / time.Duration(iters)
}

// bestOfAlternating times the two sides of a speedup gate trial by trial
// — one trial of a, then one of b, trials times — and returns each side's
// fastest trial. Other processes share the machine: timing every trial of
// one side before the other lets a burst of contention land on one side
// only, while alternating exposes both to the same spells.
func bestOfAlternating(trials int, a, b func() time.Duration) (bestA, bestB time.Duration) {
	bestA, bestB = 1<<62, 1<<62
	for range trials {
		bestA = min(bestA, a())
		bestB = min(bestB, b())
	}
	return bestA, bestB
}

// onBackend returns a trial that times iters runs of fn on the named
// backend.
func onBackend(t testing.TB, name string, iters int, fn func()) func() time.Duration {
	return func() time.Duration {
		var d time.Duration
		withBackend(t, name, func() { d = timeRuns(iters, fn) })
		return d
	}
}

// skipUnlessVectorDispatched gates the speedup acceptance tests the same
// way TestParallelEncodeSpeedup gates on core count: when the dispatched
// backend IS the portable one (noasm build, or a CPU without AVX2+FMA)
// there is no vector path to demonstrate, so the test skips.
func skipUnlessVectorDispatched(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	if ActiveBackend() == "generic" {
		t.Skipf("dispatched backend is the portable one (backends: %v)", Backends())
	}
}

// TestMatVecVectorSpeedup asserts the dispatched vector MatVec at least
// 1.5× over the scalar backend at a cache-resident 512² (at 1024² the
// operation is DRAM-bandwidth-bound and the ratio compresses toward the
// memory system; see BenchmarkMatVecKernel1024 under both backends).
func TestMatVecVectorSpeedup(t *testing.T) {
	skipUnlessVectorDispatched(t)
	const rows, cols = 512, 512
	rng := rand.New(rand.NewSource(42))
	a, x := randSlice(rows*cols, rng), randSlice(cols, rng)
	dst := make([]float64, rows)
	vec := ActiveBackend()
	mv := func() { MatVec(dst, a, rows, cols, x) }
	scalar, vector := bestOfAlternating(7, onBackend(t, "generic", 20, mv), onBackend(t, vec, 20, mv))
	t.Logf("MatVec %dx%d: generic %v, %s %v (%.2fx)", rows, cols, scalar, vec, vector, float64(scalar)/float64(vector))
	if float64(scalar) < 1.5*float64(vector) {
		t.Fatalf("vector MatVec only %.2fx over scalar, want >= 1.5x", float64(scalar)/float64(vector))
	}
}

// TestGFAxpyVectorSpeedup asserts the vectorized GF(2³¹−1) mul-accumulate
// at least 1.5× over the Mersenne-folded scalar backend.
func TestGFAxpyVectorSpeedup(t *testing.T) {
	skipUnlessVectorDispatched(t)
	const n = 1 << 14
	dst := make([]uint32, n)
	src := make([]uint32, n)
	for i := range src {
		src[i] = (uint32(i) * 2654435761) % uint32(p31)
		dst[i] = (uint32(i) * 40503) % uint32(p31)
	}
	vec := ActiveBackend()
	axpy := func() { GFAxpyMod31(dst, 123456789, src) }
	scalar, vector := bestOfAlternating(7, onBackend(t, "generic", 200, axpy), onBackend(t, vec, 200, axpy))
	t.Logf("GFAxpy %d: generic %v, %s %v (%.2fx)", n, scalar, vec, vector, float64(scalar)/float64(vector))
	if float64(scalar) < 1.5*float64(vector) {
		t.Fatalf("vector GFAxpy only %.2fx over scalar, want >= 1.5x", float64(scalar)/float64(vector))
	}
}

// BenchmarkKernelBackends reports the key kernels under every available
// backend side by side (the CI smoke job also flips S2C2_KERNEL_BACKEND
// to pin process-wide selection).
func BenchmarkKernelBackends(b *testing.B) {
	rng := rand.New(rand.NewSource(51))
	const size = 512
	a := randSlice(size*size, rng)
	x := randSlice(size, rng)
	mvDst := make([]float64, size)
	gfDst := make([]uint32, 1<<14)
	gfSrc := make([]uint32, 1<<14)
	for i := range gfSrc {
		gfSrc[i] = (uint32(i) * 2654435761) % uint32(p31)
	}
	prev := ActiveBackend()
	defer SetBackend(prev) //nolint:errcheck
	for _, backend := range Backends() {
		if err := SetBackend(backend); err != nil {
			b.Fatal(err)
		}
		b.Run("MatVec512/"+backend, func(b *testing.B) {
			b.SetBytes(8 * size * size)
			for i := 0; i < b.N; i++ {
				MatVec(mvDst, a, size, size, x)
			}
		})
		b.Run("GFAxpy16k/"+backend, func(b *testing.B) {
			b.SetBytes(4 * 1 << 14)
			for i := 0; i < b.N; i++ {
				GFAxpyMod31(gfDst, 123456789, gfSrc)
			}
		})
	}
}
