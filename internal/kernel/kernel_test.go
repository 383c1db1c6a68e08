package kernel

import (
	"math"
	"math/rand"
	"testing"
)

func randSlice(n int, rng *rand.Rand) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 2*rng.Float64() - 1
	}
	return s
}

// naive reference kernels — the pre-refactor loops.

func naiveMatVec(dst, a []float64, rows, cols int, x []float64) {
	for i := 0; i < rows; i++ {
		s := 0.0
		for j := 0; j < cols; j++ {
			s += a[i*cols+j] * x[j]
		}
		dst[i] = s
	}
}

func naiveMatMul(dst, a []float64, m, k int, b []float64, n int) {
	for i := range dst[:m*n] {
		dst[i] = 0
	}
	for i := 0; i < m; i++ {
		for kx := 0; kx < k; kx++ {
			av := a[i*k+kx]
			for j := 0; j < n; j++ {
				dst[i*n+j] += av * b[kx*n+j]
			}
		}
	}
}

func maxAbsDiff(x, y []float64) float64 {
	d := 0.0
	for i := range x {
		if a := math.Abs(x[i] - y[i]); a > d {
			d = a
		}
	}
	return d
}

func TestDotMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 3, 4, 7, 64, 1001} {
		x, y := randSlice(n, rng), randSlice(n, rng)
		want := 0.0
		for i := range x {
			want += x[i] * y[i]
		}
		if got := Dot(x, y); math.Abs(got-want) > 1e-12*float64(n+1) {
			t.Fatalf("n=%d: Dot=%v want %v", n, got, want)
		}
	}
}

func TestMatVecMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][2]int{{0, 5}, {1, 1}, {7, 3}, {64, 64}, {33, 129}} {
		rows, cols := dims[0], dims[1]
		a, x := randSlice(rows*cols, rng), randSlice(cols, rng)
		got, want := make([]float64, rows), make([]float64, rows)
		MatVec(got, a, rows, cols, x)
		naiveMatVec(want, a, rows, cols, x)
		if maxAbsDiff(got, want) > 1e-10 {
			t.Fatalf("%dx%d: MatVec mismatch", rows, cols)
		}
	}
}

func TestMatVecRangeMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	rows, cols := 37, 19
	a, x := randSlice(rows*cols, rng), randSlice(cols, rng)
	full := make([]float64, rows)
	MatVec(full, a, rows, cols, x)
	for lo := 0; lo <= rows; lo += 7 {
		for hi := lo; hi <= rows; hi += 11 {
			part := make([]float64, hi-lo)
			MatVecRange(part, a, cols, x, lo, hi)
			if maxAbsDiff(part, full[lo:hi]) > 1e-12 {
				t.Fatalf("range [%d,%d) mismatch", lo, hi)
			}
		}
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// Shapes straddling every blocking boundary: micro-kernel tails,
	// kc/nc panel edges, degenerate dims.
	shapes := [][3]int{
		{1, 1, 1}, {4, 4, 4}, {5, 3, 2}, {3, 200, 300},
		{64, 64, 64}, {65, 129, 257}, {130, 128, 256}, {0, 4, 4}, {4, 0, 4},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, b := randSlice(m*k, rng), randSlice(k*n, rng)
		got, want := make([]float64, m*n), make([]float64, m*n)
		MatMul(got, a, m, k, b, n)
		naiveMatMul(want, a, m, k, b, n)
		if maxAbsDiff(got, want) > 1e-9 {
			t.Fatalf("%dx%dx%d: MatMul mismatch (max diff %g)", m, k, n, maxAbsDiff(got, want))
		}
	}
}

func TestMatMulRangeBandsCompose(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m, k, n := 31, 40, 27
	a, b := randSlice(m*k, rng), randSlice(k*n, rng)
	want := make([]float64, m*n)
	MatMul(want, a, m, k, b, n)
	got := make([]float64, m*n)
	for lo := 0; lo < m; lo += 9 {
		hi := lo + 9
		if hi > m {
			hi = m
		}
		MatMulRange(got, a, m, k, b, n, lo, hi)
	}
	if maxAbsDiff(got, want) > 1e-10 {
		t.Fatal("banded MatMulRange disagrees with full MatMul")
	}
}

func TestATDiagBRangeMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m, ka, nb := 14, 9, 6
	a, b, d := randSlice(m*ka, rng), randSlice(m*nb, rng), randSlice(m, rng)
	// want = Aᵀ·diag(d)·B by explicit loops.
	want := make([]float64, ka*nb)
	for i := 0; i < m; i++ {
		for p := 0; p < ka; p++ {
			for q := 0; q < nb; q++ {
				want[p*nb+q] += a[i*ka+p] * d[i] * b[i*nb+q]
			}
		}
	}
	got := make([]float64, ka*nb)
	ATDiagBRange(got, a, d, b, m, ka, nb, 0, ka)
	if maxAbsDiff(got, want) > 1e-10 {
		t.Fatal("ATDiagBRange mismatch")
	}
	// Partial row window [2, 5).
	part := make([]float64, 3*nb)
	ATDiagBRange(part, a, d, b, m, ka, nb, 2, 5)
	if maxAbsDiff(part, want[2*nb:5*nb]) > 1e-10 {
		t.Fatal("partial ATDiagBRange mismatch")
	}
}

func TestAxpyScaleZero(t *testing.T) {
	y := []float64{1, 2, 3}
	Axpy(2, []float64{1, 1, 1}, y)
	if y[0] != 3 || y[2] != 5 {
		t.Fatalf("Axpy = %v", y)
	}
	Scale(2, y)
	if y[0] != 6 {
		t.Fatalf("Scale = %v", y)
	}
	Zero(y)
	if y[0] != 0 || y[2] != 0 {
		t.Fatalf("Zero = %v", y)
	}
}
