package coding

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/coded-computing/s2c2/internal/mat"
)

// Edge cases around the partial-result model: duplicates, overlaps, and
// degenerate code parameters.

func TestDecodeWithDuplicatePartialsFromSameWorker(t *testing.T) {
	// A worker may answer in several messages (e.g. after reassignment);
	// overlapping ranges from the same worker must not break decoding.
	rng := rand.New(rand.NewSource(51))
	a := mat.Rand(12, 4, rng)
	x := randVec(4, rng)
	want := mat.MatVec(a, x)
	c, _ := NewMDSCode(4, 2)
	enc := c.Encode(a)
	br := enc.BlockRows
	partials := []*Partial{
		enc.WorkerCompute(0, x, []Range{{0, br}}),
		enc.WorkerCompute(0, x, []Range{{0, br / 2}}), // duplicate coverage
		enc.WorkerCompute(1, x, []Range{{0, br}}),
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecApproxEqual(got, want, 1e-9) {
		t.Fatal("duplicate partials changed the decode")
	}
}

func TestDecodeMoreThanKCoverageUsesFirstK(t *testing.T) {
	// Over-coverage (all n workers answering fully) must decode fine.
	rng := rand.New(rand.NewSource(52))
	a := mat.Rand(20, 5, rng)
	x := randVec(5, rng)
	want := mat.MatVec(a, x)
	c, _ := NewMDSCode(6, 3)
	enc := c.Encode(a)
	var partials []*Partial
	for w := 0; w < 6; w++ {
		partials = append(partials, enc.WorkerCompute(w, x, []Range{{0, enc.BlockRows}}))
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecApproxEqual(got, want, 1e-9) {
		t.Fatal("over-coverage decode mismatch")
	}
}

func TestK1CodeIsReplication(t *testing.T) {
	// (n,1)-MDS is n-way replication: every partition equals A itself and
	// any single worker decodes.
	rng := rand.New(rand.NewSource(53))
	a := mat.Rand(7, 3, rng)
	x := randVec(3, rng)
	want := mat.MatVec(a, x)
	c, _ := NewMDSCode(3, 1)
	enc := c.Encode(a)
	for w := 0; w < 3; w++ {
		p := enc.WorkerCompute(w, x, []Range{{0, enc.BlockRows}})
		got, err := enc.DecodeMatVec([]*Partial{p})
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
		if !mat.VecApproxEqual(got, want, 1e-8) {
			t.Fatalf("worker %d: (3,1) decode mismatch", w)
		}
	}
}

func TestKEqualsNCodeIsUncoded(t *testing.T) {
	// (n,n)-MDS has zero redundancy: every worker is required.
	rng := rand.New(rand.NewSource(54))
	a := mat.Rand(12, 3, rng)
	x := randVec(3, rng)
	want := mat.MatVec(a, x)
	c, _ := NewMDSCode(4, 4)
	enc := c.Encode(a)
	var partials []*Partial
	for w := 0; w < 4; w++ {
		partials = append(partials, enc.WorkerCompute(w, x, []Range{{0, enc.BlockRows}}))
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecApproxEqual(got, want, 1e-9) {
		t.Fatal("(4,4) decode mismatch")
	}
	// Dropping any worker must fail.
	if _, err := enc.DecodeMatVec(partials[:3]); err == nil {
		t.Fatal("(4,4) should need every worker")
	}
}

func TestWorkerComputeEmptyRanges(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	a := mat.Rand(8, 2, rng)
	c, _ := NewMDSCode(4, 2)
	enc := c.Encode(a)
	p := enc.WorkerCompute(0, []float64{1, 1}, nil)
	if TotalRows(p.Ranges) != 0 || len(p.Values) != 0 {
		t.Fatal("empty assignment should produce an empty partial")
	}
}

// Two partials that cover every row k = 2 times over but disagree on
// RowWidth (2 and 1) fail on the widths, not on coverage. RowWidth 0
// reads as 1 on both fields: such partials decode to the width-1 result.
func TestDecodeRejectsWrongRowWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	a := mat.Rand(8, 2, rng)
	c, _ := NewMDSCode(4, 2)
	enc := c.Encode(a)
	all := []Range{{0, enc.BlockRows}}
	wide := enc.WorkerComputeBatchInto(0, []float64{1, 1, 2, 2}, 2, all, nil)
	narrow := enc.WorkerCompute(3, []float64{1, 1}, all)
	_, err := enc.DecodeMatVec([]*Partial{wide, narrow})
	if err == nil || errors.Is(err, ErrInsufficient) || !strings.Contains(err.Error(), "widths 2 and 1") {
		t.Fatalf("mixed widths 2 and 1: error %v, want one naming both widths", err)
	}

	zero := []*Partial{enc.WorkerCompute(0, []float64{1, 1}, all), narrow}
	want, err := enc.DecodeMatVec(zero)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range zero {
		p.RowWidth = 0
	}
	if got, err := enc.DecodeMatVec(zero); err != nil || !slices.Equal(got, want) {
		t.Fatalf("float64 RowWidth 0: %v, %v; want the width-1 decode %v", got, err, want)
	}

	gc, _ := NewGFMDSCode(4, 2)
	data := randGFData(8*2, rng)
	genc, err := gc.Encode(8, 2, data)
	if err != nil {
		t.Fatal(err)
	}
	x := randGFData(2, rng)
	gzero := []*GFPartial{genc.WorkerCompute(1, x, all), genc.WorkerCompute(2, x, all)}
	for _, p := range gzero {
		p.RowWidth = 0
	}
	if got, err := genc.DecodeMatVec(gzero); err != nil || !slices.Equal(got, gfMatVec(8, 2, data, x)) {
		t.Fatalf("GF RowWidth 0: %v, %v; want A·x", got, err)
	}
}

func TestPolySingleBlockGrid(t *testing.T) {
	// a=b=1: the product decodes from any single worker.
	rng := rand.New(rand.NewSource(57))
	a := mat.Rand(6, 4, rng)
	b := mat.Rand(6, 3, rng)
	d := randVec(6, rng)
	want := mat.ATDiagB(a, d, b)
	c, err := NewPolyCode(3, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := c.EncodeBilinear(a, b)
	if err != nil {
		t.Fatal(err)
	}
	p := enc.WorkerCompute(2, d, []Range{{0, enc.BlockColsA}})
	got, err := enc.Decode([]*Partial{p})
	if err != nil {
		t.Fatal(err)
	}
	if !got.ApproxEqual(want, 1e-8) {
		t.Fatal("(3,1,1) single-worker decode mismatch")
	}
}

func TestPolyHessianRequiresSquareGrid(t *testing.T) {
	c, _ := NewPolyCode(7, 3, 2)
	rng := rand.New(rand.NewSource(58))
	if _, err := c.EncodeHessian(mat.Rand(4, 6, rng)); err == nil {
		t.Fatal("EncodeHessian with a != b must fail")
	}
}

func TestPolyBilinearRowMismatch(t *testing.T) {
	c, _ := NewPolyCode(5, 2, 2)
	rng := rand.New(rand.NewSource(59))
	if _, err := c.EncodeBilinear(mat.Rand(4, 4, rng), mat.Rand(5, 4, rng)); err == nil {
		t.Fatal("row-count mismatch must fail")
	}
}
