package coding

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/coded-computing/s2c2/internal/mat"
)

func TestPolyCodeValidation(t *testing.T) {
	if _, err := NewPolyCode(3, 2, 2); err == nil {
		t.Fatal("a·b > n must fail")
	}
	if _, err := NewPolyCode(5, 0, 2); err == nil {
		t.Fatal("a=0 must fail")
	}
	c, err := NewPolyCode(5, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.RecoveryThreshold() != 4 || c.N() != 5 {
		t.Fatal("bad parameters")
	}
	seen := map[float64]bool{}
	for i := 0; i < 5; i++ {
		a := c.alphas[i]
		if a <= -1 || a >= 1 || seen[a] {
			t.Fatalf("alpha %d = %v not distinct in (-1,1)", i, a)
		}
		seen[a] = true
	}
}

func TestPolyHessianRoundTrip(t *testing.T) {
	// The paper's Figure 12 setup at test scale: 12 nodes, a=b=3, any 9
	// of 12 decode Aᵀ·diag(d)·A.
	rng := rand.New(rand.NewSource(21))
	a := mat.Rand(18, 9, rng)
	d := randVec(18, rng)
	want := mat.ATDiagA(a, d)

	c, err := NewPolyCode(12, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := c.EncodeHessian(a)
	if err != nil {
		t.Fatal(err)
	}
	// Any 9 of the 12 nodes, full partitions.
	var partials []*Partial
	for _, w := range rng.Perm(12)[:9] {
		partials = append(partials, enc.WorkerCompute(w, d, []Range{{0, enc.BlockColsA}}))
	}
	got, err := enc.Decode(partials)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ApproxEqual(want, 1e-7) {
		t.Fatalf("Hessian decode mismatch:\n got %v\nwant %v", got, want)
	}
}

func TestPolyBilinearRectangular(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	a := mat.Rand(10, 6, rng)
	b := mat.Rand(10, 4, rng)
	d := randVec(10, rng)
	want := mat.ATDiagB(a, d, b)

	c, err := NewPolyCode(7, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := c.EncodeBilinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	var partials []*Partial
	for _, w := range rng.Perm(7)[:6] {
		partials = append(partials, enc.WorkerCompute(w, d, []Range{{0, enc.BlockColsA}}))
	}
	got, err := enc.Decode(partials)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ApproxEqual(want, 1e-7) {
		t.Fatal("bilinear decode mismatch")
	}
}

func TestPolyS2C2PartialRows(t *testing.T) {
	// Figure 5's exact scenario: 5 nodes, a=b=2, each partition has 9 rows,
	// relative speeds {2,2,2,2,1}. General S2C2 allocates {8,8,8,8,4} rows
	// as contiguous cyclic ranges, so every row index is covered by exactly
	// a·b = 4 nodes and the partial straggler still contributes useful work.
	rng := rand.New(rand.NewSource(23))
	a := mat.Rand(12, 18, rng) // a=2 → BlockColsA = 9, as in Figure 5
	b := mat.Rand(12, 8, rng)
	d := randVec(12, rng)
	want := mat.ATDiagB(a, d, b)

	c, err := NewPolyCode(5, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := c.EncodeBilinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if enc.BlockColsA != 9 {
		t.Fatalf("BlockColsA = %d want 9", enc.BlockColsA)
	}
	// Contiguous cyclic allocation of {8,8,8,8,4} rows over 9 row indices.
	assign := map[int][]Range{
		0: {{0, 8}},
		1: {{8, 9}, {0, 7}},
		2: {{7, 9}, {0, 6}},
		3: {{6, 9}, {0, 5}},
		4: {{5, 9}},
	}
	var partials []*Partial
	for w, ranges := range assign {
		partials = append(partials, enc.WorkerCompute(w, d, ranges))
	}
	got, err := enc.Decode(partials)
	if err != nil {
		t.Fatal(err)
	}
	if !got.ApproxEqual(want, 1e-7) {
		t.Fatal("S2C2 partial-row polynomial decode mismatch")
	}
}

func TestPolyInsufficient(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	a := mat.Rand(8, 4, rng)
	d := randVec(8, rng)
	c, _ := NewPolyCode(5, 2, 2)
	enc, _ := c.EncodeHessian(a)
	var partials []*Partial
	for w := 0; w < 3; w++ {
		partials = append(partials, enc.WorkerCompute(w, d, []Range{{0, enc.BlockColsA}}))
	}
	if _, err := enc.Decode(partials); err == nil {
		t.Fatal("expected insufficient-coverage error")
	}
}

func TestPolyAnySubsetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		aBlocks := 1 + r.Intn(3)
		bBlocks := 1 + r.Intn(3)
		n := aBlocks*bBlocks + r.Intn(3)
		rows := 2 + r.Intn(8)
		colsA := aBlocks * (1 + r.Intn(3))
		colsB := bBlocks * (1 + r.Intn(3))
		a := mat.Rand(rows, colsA, r)
		b := mat.Rand(rows, colsB, r)
		d := randVec(rows, r)
		want := mat.ATDiagB(a, d, b)
		c, err := NewPolyCode(n, aBlocks, bBlocks)
		if err != nil {
			return false
		}
		enc, err := c.EncodeBilinear(a, b)
		if err != nil {
			return false
		}
		var partials []*Partial
		for _, w := range r.Perm(n)[:aBlocks*bBlocks] {
			partials = append(partials, enc.WorkerCompute(w, d, []Range{{0, enc.BlockColsA}}))
		}
		got, err := enc.Decode(partials)
		if err != nil {
			return false
		}
		return got.ApproxEqual(want, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// The Björck–Pereyra inverse is as accurate as an LU-inverted Vandermonde
// system: over every a·b-subset of each code, the decode's worst relative
// error stays within 2× of the LU reference's worst.
func TestPolyDecodeAccuracyMatchesLU(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, shape := range []struct{ n, a, b int }{{12, 3, 3}, {10, 3, 3}, {7, 3, 2}, {12, 2, 2}} {
		code, err := NewPolyCode(shape.n, shape.a, shape.b)
		if err != nil {
			t.Fatal(err)
		}
		const rows = 16
		ma := mat.Rand(rows, 4*shape.a, rng)
		mb := mat.Rand(rows, 4*shape.b, rng)
		d := randVec(rows, rng)
		want := mat.ATDiagB(ma, d, mb)
		enc, err := code.EncodeBilinear(ma, mb)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]*Partial, shape.n)
		for w := range all {
			all[w] = enc.WorkerCompute(w, d, []Range{{0, enc.BlockColsA}})
		}
		ws := enc.NewDecodeWorkspace()
		got := mat.New(enc.ColsA, enc.ColsB)
		worst, worstRef, sets := 0.0, 0.0, 0
		for mask := 0; mask < 1<<shape.n; mask++ {
			if bits.OnesCount(uint(mask)) != shape.a*shape.b {
				continue
			}
			var partials []*Partial
			for w := 0; w < shape.n; w++ {
				if mask&(1<<w) != 0 {
					partials = append(partials, all[w])
				}
			}
			if _, err := enc.DecodeInto(got, partials, ws); err != nil {
				t.Fatal(err)
			}
			ref, err := refPolyDecode(enc, partials)
			if err != nil {
				t.Fatal(err)
			}
			worst = math.Max(worst, relErr(got, want))
			worstRef = math.Max(worstRef, relErr(ref, want))
			sets++
		}
		t.Logf("%v: %d sets, worst relative error %.3g (LU reference %.3g)", shape, sets, worst, worstRef)
		if worst > 2*worstRef {
			t.Errorf("%v: worst relative error %.3g over %d sets, more than 2× the LU reference's %.3g",
				shape, worst, sets, worstRef)
		}
	}
}

// relErr is max|got − want| / max|want|.
func relErr(got, want *mat.Dense) float64 {
	diff, scale := 0.0, 0.0
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < want.Cols(); j++ {
			diff = math.Max(diff, math.Abs(got.At(i, j)-want.At(i, j)))
			scale = math.Max(scale, math.Abs(want.At(i, j)))
		}
	}
	return diff / scale
}
