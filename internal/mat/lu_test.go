package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSolveKnownSystem(t *testing.T) {
	a := NewFromRows([][]float64{{2, 1}, {1, 3}})
	x, err := luSolve(a, []float64{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3}
	if !VecApproxEqual(x, want, 1e-10) {
		t.Fatalf("Solve = %v want %v", x, want)
	}
}

func TestSolveSingular(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := luSolve(a, []float64{1, 2}); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestSolveResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		a := Rand(n, n, r)
		// Diagonal boost keeps the random systems comfortably nonsingular.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		xTrue := randVec(n, r)
		b := MatVec(a, xTrue)
		x, err := luSolve(a, b)
		if err != nil {
			return false
		}
		return VecApproxEqual(x, xTrue, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestSolveMany(t *testing.T) {
	a := NewFromRows([][]float64{{4, 1}, {1, 3}})
	f := new(LU)
	if err := f.Factor(a); err != nil {
		t.Fatal(err)
	}
	// Two right-hand sides, {5, 4} and {9, 7}, solved as two lanes.
	rhs := [][]float64{{5, 4}, {9, 7}}
	x := make([]float64, 2*2)
	f.SolveLanesInto(x, 2, [][]float64{{5, 9}, {4, 7}})
	for l, b := range rhs {
		got := MatVec(a, []float64{x[l], x[2+l]})
		if !VecApproxEqual(got, b, 1e-10) {
			t.Fatalf("rhs %d: A·x = %v want %v", l, got, b)
		}
	}
}

// SolveLanesInto must agree with SolveInto lane by lane (the same
// substitutions, up to the reciprocal-pivot rounding), honour the output
// stride, and — being elementwise — return the same bits wherever the
// lanes are split across calls.
func TestSolveLanesIntoMatchesSolveInto(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, n := range []int{1, 2, 3, 6, 10} {
		a := Rand(n, n, rng)
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n)) // well conditioned, pivots permuted or not
		}
		f := new(LU)
		if err := f.Factor(a); err != nil {
			t.Fatal(err)
		}
		const m, stride = 37, 50
		b := make([][]float64, n)
		for i := range b {
			b[i] = make([]float64, m)
			for l := range b[i] {
				b[i][l] = rng.NormFloat64()
			}
		}
		x := make([]float64, n*stride)
		f.SolveLanesInto(x, stride, b)
		col, want := make([]float64, n), make([]float64, n)
		for l := 0; l < m; l++ {
			for i := range col {
				col[i] = b[i][l]
			}
			f.SolveInto(want, col)
			for i := range want {
				if got := x[i*stride+l]; math.Abs(got-want[i]) > 1e-12*(1+math.Abs(want[i])) {
					t.Fatalf("n=%d lane %d unknown %d: lanes %v, scalar %v", n, l, i, got, want[i])
				}
			}
		}
		// Split the lanes at an odd offset: every bit must repeat.
		const cut = 13
		split := make([]float64, n*stride)
		lo, hi := make([][]float64, n), make([][]float64, n)
		for i := range b {
			lo[i], hi[i] = b[i][:cut], b[i][cut:]
		}
		f.SolveLanesInto(split, stride, lo)
		f.SolveLanesInto(split[cut:], stride, hi)
		for i := 0; i < n; i++ {
			for l := 0; l < m; l++ {
				if split[i*stride+l] != x[i*stride+l] {
					t.Fatalf("n=%d: split solve differs at unknown %d lane %d", n, i, l)
				}
			}
		}
	}
}

// luSolve solves the square system A·x = b through LU.Factor and SolveInto.
func luSolve(a *Dense, b []float64) ([]float64, error) {
	f := new(LU)
	if err := f.Factor(a); err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	f.SolveInto(x, b)
	return x, nil
}
