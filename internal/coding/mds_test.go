package coding

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/coded-computing/s2c2/internal/mat"
)

func TestNewMDSCodeValidation(t *testing.T) {
	if _, err := NewMDSCode(3, 0); err == nil {
		t.Fatal("k=0 should be rejected")
	}
	if _, err := NewMDSCode(3, 4); err == nil {
		t.Fatal("k>n should be rejected")
	}
	c, err := NewMDSCode(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 4 || c.K() != 2 {
		t.Fatal("dims wrong")
	}
}

func TestMDSSystematicPrefix(t *testing.T) {
	c, _ := NewMDSCode(5, 3)
	for i := 0; i < 3; i++ {
		row := generatorRow(c.gen, c.k, i)
		for j := 0; j < 3; j++ {
			want := 0.0
			if i == j {
				want = 1
			}
			if row[j] != want {
				t.Fatalf("generator row %d = %v not systematic", i, row)
			}
		}
	}
}

func TestMDSEncodeSystematicPartsMatchBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// 13 and 17 rows do not divide by k: the last block ends in zero rows.
	for _, rows := range []int{12, 13, 17} {
		a := mat.Rand(rows, 5, rng)
		c, _ := NewMDSCode(6, 4)
		enc := c.Encode(a)
		padded := mat.PadRows(a, 4)
		per := padded.Rows() / 4
		for j := 0; j < 4; j++ {
			block := mat.NewFromData(per, 5, padded.Data()[j*per*5:(j+1)*per*5])
			if !enc.Parts[j].ApproxEqual(block, 1e-14) {
				t.Fatalf("rows=%d: systematic part %d differs from raw block", rows, j)
			}
		}
	}
}

func TestMDSFullPartitionRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := mat.Rand(20, 7, rng)
	x := randVec(7, rng)
	want := mat.MatVec(a, x)

	c, _ := NewMDSCode(6, 4)
	enc := c.Encode(a)
	// Use the last k workers (all parity mixed in) — hardest case.
	var partials []*Partial
	for w := 2; w < 6; w++ {
		partials = append(partials, enc.WorkerCompute(w, x, []Range{{0, enc.BlockRows}}))
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecApproxEqual(got, want, 1e-8) {
		t.Fatalf("decode mismatch:\n got %v\nwant %v", got, want)
	}
}

func TestMDSAnyKOfNProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(8) // 3..10
		k := 1 + r.Intn(n) // 1..n
		rows := k * (1 + r.Intn(4))
		cols := 1 + r.Intn(6)
		a := mat.Rand(rows, cols, r)
		x := randVec(cols, r)
		want := mat.MatVec(a, x)
		c, err := NewMDSCode(n, k)
		if err != nil {
			return false
		}
		enc := c.Encode(a)
		workers := r.Perm(n)[:k]
		partials := make([]*Partial, 0, k)
		for _, w := range workers {
			partials = append(partials, enc.WorkerCompute(w, x, []Range{{0, enc.BlockRows}}))
		}
		got, err := enc.DecodeMatVec(partials)
		if err != nil {
			return false
		}
		return mat.VecApproxEqual(got, want, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestMDSPartialCoverageDecode(t *testing.T) {
	// S2C2-style decode: each worker computes only part of its partition,
	// with every row index covered by exactly k workers.
	rng := rand.New(rand.NewSource(4))
	a := mat.Rand(30, 6, rng)
	x := randVec(6, rng)
	want := mat.MatVec(a, x)

	n, k := 4, 2
	c, _ := NewMDSCode(n, k)
	enc := c.Encode(a)
	br := enc.BlockRows // 15
	third := br / 3
	// Mirror Figure 4c: worker 0 does chunks {0,1}, worker 1 {0,2},
	// worker 2 {1,2}, worker 3 (straggler) does nothing.
	assignments := map[int][]Range{
		0: {{0, 2 * third}},
		1: {{0, third}, {2 * third, br}},
		2: {{third, br}},
	}
	var partials []*Partial
	for w, ranges := range assignments {
		partials = append(partials, enc.WorkerCompute(w, x, ranges))
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecApproxEqual(got, want, 1e-8) {
		t.Fatal("partial-coverage decode mismatch")
	}
}

func TestMDSInsufficientCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := mat.Rand(12, 4, rng)
	x := randVec(4, rng)
	c, _ := NewMDSCode(4, 3)
	enc := c.Encode(a)
	partials := []*Partial{
		enc.WorkerCompute(0, x, []Range{{0, enc.BlockRows}}),
		enc.WorkerCompute(1, x, []Range{{0, enc.BlockRows}}),
	}
	_, err := enc.DecodeMatVec(partials)
	if !errors.Is(err, ErrInsufficient) {
		t.Fatalf("want ErrInsufficient, got %v", err)
	}
}

func TestMDSPaddedRowsRoundTrip(t *testing.T) {
	// Row count not divisible by k: padding must be invisible to callers.
	rng := rand.New(rand.NewSource(6))
	a := mat.Rand(17, 3, rng)
	x := randVec(3, rng)
	want := mat.MatVec(a, x)
	c, _ := NewMDSCode(5, 4)
	enc := c.Encode(a)
	var partials []*Partial
	for _, w := range []int{4, 2, 1, 0} {
		partials = append(partials, enc.WorkerCompute(w, x, []Range{{0, enc.BlockRows}}))
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 17 {
		t.Fatalf("decoded length %d want 17", len(got))
	}
	if !mat.VecApproxEqual(got, want, 1e-8) {
		t.Fatal("padded decode mismatch")
	}
}

func TestMDSLargeCodeAccuracy(t *testing.T) {
	// The (50,40) scaling configuration from Figure 13, decoded from a mix
	// of systematic and parity workers.
	rng := rand.New(rand.NewSource(7))
	a := mat.Rand(80, 4, rng)
	x := randVec(4, rng)
	want := mat.MatVec(a, x)
	c, _ := NewMDSCode(50, 40)
	enc := c.Encode(a)
	// Drop 10 random workers; decode from the rest (40 workers).
	drop := map[int]bool{}
	for len(drop) < 10 {
		drop[rng.Intn(50)] = true
	}
	var partials []*Partial
	for w := 0; w < 50; w++ {
		if drop[w] {
			continue
		}
		partials = append(partials, enc.WorkerCompute(w, x, []Range{{0, enc.BlockRows}}))
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecApproxEqual(got, want, 1e-5) {
		t.Fatal("(50,40) decode accuracy below tolerance")
	}
}

func TestNormalizeRanges(t *testing.T) {
	in := []Range{{5, 7}, {0, 2}, {2, 2}, {1, 4}, {9, 9}}
	out := AppendNormalizeRanges(nil, in)
	want := []Range{{0, 4}, {5, 7}}
	if len(out) != len(want) {
		t.Fatalf("got %v want %v", out, want)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("got %v want %v", out, want)
		}
	}
	if TotalRows(out) != 6 {
		t.Fatalf("TotalRows = %d", TotalRows(out))
	}
}

func TestPartialValidate(t *testing.T) {
	// The rule a partial meets when it enters a decode.
	validate := func(p *Partial, blockRows int) error {
		return validatePartial(p.Worker, p.Ranges, len(p.Values), p.Width(), blockRows)
	}
	p := &Partial{Worker: 0, Ranges: []Range{{0, 3}}, RowWidth: 1, Values: []float64{1, 2}}
	if err := validate(p, 10); err == nil {
		t.Fatal("length mismatch should fail validation")
	}
	p.Values = []float64{1, 2, 3}
	if err := validate(p, 10); err != nil {
		t.Fatal(err)
	}
	p.Ranges = []Range{{8, 12}}
	if err := validate(p, 10); err == nil {
		t.Fatal("out-of-bounds range should fail validation")
	}
}

func randVec(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}
