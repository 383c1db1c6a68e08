package mat

import (
	"math/rand"
	"testing"
)

func TestMatVecKnown(t *testing.T) {
	a := NewFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	x := []float64{1, 0, -1}
	y := MatVec(a, x)
	want := []float64{-2, -2}
	if !VecApproxEqual(y, want, 1e-12) {
		t.Fatalf("MatVec = %v want %v", y, want)
	}
}

func TestMatVecRowsMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := Rand(20, 9, rng)
	x := randVec(9, rng)
	full := MatVec(a, x)
	for lo := 0; lo <= 20; lo += 5 {
		for hi := lo; hi <= 20; hi += 5 {
			part := MatVecRows(a, x, lo, hi)
			if !VecApproxEqual(part, full[lo:hi], 1e-12) {
				t.Fatalf("MatVecRows[%d:%d] mismatch", lo, hi)
			}
		}
	}
}

func TestATDiagAMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	a := Rand(15, 6, rng)
	d := randVec(15, rng)
	got := ATDiagA(a, d)
	want := naiveMatMul(Transpose(a), scaleRows(d, a))
	if !got.ApproxEqual(want, 1e-9) {
		t.Fatal("ATDiagA mismatch vs naive composition")
	}
}

func TestATDiagBMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := Rand(12, 5, rng)
	b := Rand(12, 4, rng)
	d := randVec(12, rng)
	got := ATDiagB(a, d, b)
	want := naiveMatMul(Transpose(a), scaleRows(d, b))
	if !got.ApproxEqual(want, 1e-9) {
		t.Fatal("ATDiagB mismatch vs naive composition")
	}
}

func TestATDiagBRowsMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := Rand(10, 8, rng)
	b := Rand(10, 3, rng)
	d := randVec(10, rng)
	full := ATDiagB(a, d, b)
	part := make([]float64, 4*3)
	ATDiagBRowsInto(a, d, b, 2, 6, part)
	for i := 0; i < 4; i++ {
		if !VecApproxEqual(part[i*3:(i+1)*3], full.Row(i+2), 1e-9) {
			t.Fatalf("row %d mismatch", i)
		}
	}
}

func TestSplitRowsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, rows := range []int{12, 13, 17} {
		a := Rand(rows, 5, rng)
		blocks := SplitRows(a, 4)
		if len(blocks) != 4 {
			t.Fatalf("got %d blocks", len(blocks))
		}
		padded := PadRows(a, 4)
		per := padded.Rows() / 4
		for i, b := range blocks {
			if !b.Equal(padded.RowSlice(i*per, (i+1)*per)) {
				t.Fatalf("rows=%d: block %d != padded original rows", rows, i)
			}
		}
	}
}

func TestSplitColsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a := Rand(6, 10, rng)
	blocks := SplitCols(a, 3)
	// Padded to 12 columns: first 10 must match, last 2 must be zero.
	for i := 0; i < 6; i++ {
		for j := 0; j < 12; j++ {
			want := 0.0
			if j < 10 {
				want = a.At(i, j)
			}
			if got := blocks[j/4].At(i, j%4); got != want {
				t.Fatalf("(%d,%d) = %v want %v", i, j, got, want)
			}
		}
	}
}

func TestPadRowsNoopWhenDivisible(t *testing.T) {
	a := New(8, 3)
	if PadRows(a, 4) != a {
		t.Fatal("PadRows should return the same matrix when divisible")
	}
	if PaddedRows(8, 4) != 8 || PaddedRows(9, 4) != 12 {
		t.Fatal("PaddedRows arithmetic wrong")
	}
}

func TestVectorHelpers(t *testing.T) {
	x := []float64{3, 4}
	if Norm2(x) != 5 {
		t.Fatalf("Norm2 = %v", Norm2(x))
	}
	if Norm1(x) != 7 {
		t.Fatalf("Norm1 = %v", Norm1(x))
	}
	if NormInf([]float64{-9, 2}) != 9 {
		t.Fatal("NormInf wrong")
	}
	if Dot(x, []float64{1, 1}) != 7 {
		t.Fatal("Dot wrong")
	}
	z := CloneVec(x)
	z[0] = 0
	if x[0] != 3 {
		t.Fatal("CloneVec aliases")
	}
}

// scaleRows returns diag(d)·A as a new matrix: row i scaled by d[i].
func scaleRows(d []float64, a *Dense) *Dense {
	out := a.Clone()
	for i := range d {
		ScaleVec(d[i], out.Row(i))
	}
	return out
}

// naiveMatMul returns A·B by the textbook triple loop: the reference the
// product kernels are checked against.
func naiveMatMul(a, b *Dense) *Dense {
	c := New(a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			s := 0.0
			for t := 0; t < a.Cols(); t++ {
				s += a.At(i, t) * b.At(t, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}
