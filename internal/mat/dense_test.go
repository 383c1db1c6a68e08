package mat

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if r, c := m.Dims(); r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("entry (%d,%d) = %v want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := New(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At = %v want 7.5", got)
	}
	if got := m.Row(1)[2]; got != 7.5 {
		t.Fatalf("Row slice = %v want 7.5", got)
	}
}

func TestNewFromRows(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("unexpected contents %v", m)
	}
}

func TestNewFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	NewFromRows([][]float64{{1, 2}, {3}})
}

func TestNewFromDataLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad data length")
		}
	}()
	NewFromData(2, 2, []float64{1, 2, 3})
}

func TestCloneIsDeep(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases original storage")
	}
}

func TestRowSliceAliases(t *testing.T) {
	m := NewFromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	s := m.RowSlice(1, 3)
	if r, c := s.Dims(); r != 2 || c != 2 {
		t.Fatalf("slice dims %d,%d", r, c)
	}
	s.Set(0, 0, -3)
	if m.At(1, 0) != -3 {
		t.Fatal("RowSlice should alias parent storage")
	}
}

func TestIdentityMatVec(t *testing.T) {
	id := Identity(4)
	x := []float64{1, -2, 3, -4}
	y := MatVec(id, x)
	if !VecApproxEqual(x, y, 0) {
		t.Fatalf("I·x = %v want %v", y, x)
	}
}

func TestApproxEqualTolerance(t *testing.T) {
	a := NewFromRows([][]float64{{1.0}})
	b := NewFromRows([][]float64{{1.0 + 1e-12}})
	if !a.ApproxEqual(b, 1e-9) {
		t.Fatal("should be approx equal")
	}
	c := NewFromRows([][]float64{{1.1}})
	if a.ApproxEqual(c, 1e-9) {
		t.Fatal("should not be approx equal")
	}
}

// Property: matvec is linear — A(x+y) == Ax + Ay.
func TestMatVecLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rows, cols := 1+r.Intn(20), 1+r.Intn(20)
		a := Rand(rows, cols, r)
		x := randVec(cols, r)
		y := randVec(cols, r)
		lhs := MatVec(a, addVec(x, y))
		rhs := addVec(MatVec(a, x), MatVec(a, y))
		return VecApproxEqual(lhs, rhs, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: transpose is an involution and (AB)ᵀ == BᵀAᵀ.
func TestTransposeProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n, p := 1+r.Intn(10), 1+r.Intn(10), 1+r.Intn(10)
		a := Rand(m, n, r)
		b := Rand(n, p, r)
		if !Transpose(Transpose(a)).Equal(a) {
			return false
		}
		lhs := Transpose(naiveMatMul(a, b))
		rhs := naiveMatMul(Transpose(b), Transpose(a))
		return lhs.ApproxEqual(rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func randVec(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}

// addVec returns x + y as a new slice.
func addVec(x, y []float64) []float64 {
	z := CloneVec(x)
	for i, v := range y {
		z[i] += v
	}
	return z
}
