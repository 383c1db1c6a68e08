package mat

import (
	"errors"
	"math/rand"
	"testing"
)

// Allocation-regression tests: the Into forms of the hot kernels must not
// allocate once destination storage exists.

func TestMatVecIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	a := Rand(256, 128, rng)
	x := randVec(128, rng)
	y := make([]float64, 256)
	if allocs := testing.AllocsPerRun(100, func() { MatVecInto(a, x, y) }); allocs != 0 {
		t.Fatalf("MatVecInto allocates %v/op, want 0", allocs)
	}
}

func TestMatVecRowsIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := Rand(256, 64, rng)
	x := randVec(64, rng)
	y := make([]float64, 100)
	if allocs := testing.AllocsPerRun(100, func() { MatVecRowsInto(a, x, y, 50, 150) }); allocs != 0 {
		t.Fatalf("MatVecRowsInto allocates %v/op, want 0", allocs)
	}
}

func TestLUSolveIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	a := Rand(12, 12, rng)
	for i := 0; i < 12; i++ {
		a.Set(i, i, a.At(i, i)+12) // diagonally dominant: well-conditioned
	}
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	b := randVec(12, rng)
	x := make([]float64, 12)
	if allocs := testing.AllocsPerRun(100, func() { f.SolveInto(x, b) }); allocs != 0 {
		t.Fatalf("LU.SolveInto allocates %v/op, want 0", allocs)
	}
}

// An LU that has held a 6×6 factorization refactors smaller systems in
// place, and solves them exactly as a fresh FactorLU does.
func TestLUFactorReusesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var f LU
	if err := f.Factor(Rand(6, 6, rng)); err != nil {
		t.Fatal(err)
	}
	a := Rand(3, 3, rng)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := f.Factor(a); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("LU.Factor allocates %v/op reusing storage, want 0", allocs)
	}
	fresh, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	b := randVec(3, rng)
	got, want := make([]float64, 3), make([]float64, 3)
	f.SolveInto(got, b)
	fresh.SolveInto(want, b)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("refactored LU solves %v, fresh %v", got, want)
		}
	}
	if err := f.Factor(NewFromRows([][]float64{{1, 2}, {2, 4}})); !errors.Is(err, ErrSingular) {
		t.Fatalf("Factor of a singular matrix = %v, want ErrSingular", err)
	}
}
