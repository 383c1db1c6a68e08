package coding

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/mat"
)

// Allocation-regression tests for the workspace-backed decode paths.

func mdsDecodeFixture(t testing.TB) (*EncodedMatrix, []*Partial) {
	rng := rand.New(rand.NewSource(40))
	a := mat.Rand(600, 20, rng)
	code, err := NewMDSCode(10, 8)
	if err != nil {
		t.Fatal(err)
	}
	enc := code.Encode(a)
	x := make([]float64, 20)
	for i := range x {
		x[i] = rng.Float64()
	}
	// Mixed systematic+parity worker set with full partitions.
	var partials []*Partial
	for _, w := range []int{0, 1, 2, 3, 4, 5, 8, 9} {
		partials = append(partials, enc.WorkerCompute(w, x, []Range{{0, enc.BlockRows}}))
	}
	return enc, partials
}

func TestDecodeMatVecIntoZeroAllocsSteadyState(t *testing.T) {
	enc, partials := mdsDecodeFixture(t)
	ws := enc.NewDecodeWorkspace()
	dst := make([]float64, enc.OrigRows)
	// Warm: first round builds the table and factors the decode set.
	if _, err := enc.DecodeMatVecInto(dst, partials, ws); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := enc.DecodeMatVecInto(dst, partials, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("DecodeMatVecInto allocates %v/op in steady state, want 0", allocs)
	}
}

func TestDecodeMatVecIntoMatchesDecodeMatVec(t *testing.T) {
	enc, partials := mdsDecodeFixture(t)
	want, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	ws := enc.NewDecodeWorkspace()
	dst := make([]float64, enc.OrigRows)
	for round := 0; round < 3; round++ {
		got, err := enc.DecodeMatVecInto(dst, partials, ws)
		if err != nil {
			t.Fatal(err)
		}
		if !mat.VecApproxEqual(got, want, 1e-12) {
			t.Fatalf("round %d: workspace decode disagrees with one-shot decode", round)
		}
	}
	// A zero-value workspace is as good as a constructed one.
	if got, err := enc.DecodeMatVecInto(nil, partials, &DecodeWorkspace{}); err != nil || !slices.Equal(got, want) {
		t.Fatalf("zero-value workspace: %v", err)
	}
}

// The workspace keeps no per-worker-set state: a recurring set decodes
// to the same bits, and a round over a set never seen before allocates
// nothing either — more distinct sets than any per-set cache would hold.
func TestDecodeWorkspaceCachesFactorizations(t *testing.T) {
	enc, partials := mdsDecodeFixture(t)
	ws := enc.NewDecodeWorkspace()
	first, err := enc.DecodeMatVecInto(nil, partials, ws)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, enc.OrigRows)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := enc.DecodeMatVecInto(dst, partials, ws); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("identical rounds allocate %v/op after the first, want 0", allocs)
	}
	for i := range first {
		if dst[i] != first[i] {
			t.Fatalf("row %d: repeated round decodes %v, first round %v", i, dst[i], first[i])
		}
	}

	// MDS(12,6) has 924 decode sets; walk 70 of them, all distinct.
	rng := rand.New(rand.NewSource(44))
	a := mat.Rand(120, 9, rng)
	code, err := NewMDSCode(12, 6)
	if err != nil {
		t.Fatal(err)
	}
	enc = code.Encode(a)
	x := randVec(9, rng)
	all := make([]*Partial, 12)
	for w := range all {
		all[w] = enc.WorkerCompute(w, x, []Range{{0, enc.BlockRows}})
	}
	var sets [][]*Partial
	for mask := 0; mask < 1<<12 && len(sets) < 71; mask++ {
		if bits.OnesCount(uint(mask)) != 6 {
			continue
		}
		var set []*Partial
		for w := 0; w < 12; w++ {
			if mask&(1<<w) != 0 {
				set = append(set, all[w])
			}
		}
		sets = append(sets, set)
	}
	want := mat.MatVec(a, x)
	ws = enc.NewDecodeWorkspace()
	dst = make([]float64, enc.OrigRows)
	// Warm up on the all-parity set, the largest parity system there is.
	if _, err := enc.DecodeMatVecInto(dst, all[6:], ws); err != nil {
		t.Fatal(err)
	}
	round := 0
	allocs = testing.AllocsPerRun(len(sets)-1, func() {
		if _, err := enc.DecodeMatVecInto(dst, sets[round], ws); err != nil {
			t.Fatal(err)
		}
		if !mat.VecApproxEqual(dst, want, 1e-9) {
			t.Fatalf("set %d decodes the wrong product", round)
		}
		round++
	})
	if allocs != 0 {
		t.Fatalf("rounds over %d distinct worker sets allocate %v/op, want 0", len(sets), allocs)
	}
}

func TestWorkerComputeIntoReusesBuffers(t *testing.T) {
	enc, _ := mdsDecodeFixture(t)
	x := make([]float64, enc.Cols)
	p := enc.WorkerComputeInto(0, x, []Range{{0, enc.BlockRows}}, nil)
	base := &p.Values[0]
	p2 := enc.WorkerComputeInto(1, x, []Range{{0, enc.BlockRows}}, p)
	if p2 != p || &p2.Values[0] != base {
		t.Fatal("WorkerComputeInto did not reuse the destination partial's storage")
	}
	if p2.Worker != 1 {
		t.Fatalf("Worker = %d, want 1", p2.Worker)
	}
}

func TestPolyDecodeIntoMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := mat.Rand(60, 24, rng)
	code, err := NewPolyCode(10, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := code.EncodeHessian(a)
	if err != nil {
		t.Fatal(err)
	}
	d := make([]float64, 60)
	for i := range d {
		d[i] = rng.Float64()
	}
	var partials []*Partial
	for w := 0; w < 9; w++ {
		partials = append(partials, enc.WorkerCompute(w, d, []Range{{0, enc.BlockColsA}}))
	}
	want, err := enc.Decode(partials)
	if err != nil {
		t.Fatal(err)
	}
	ws := enc.NewDecodeWorkspace()
	dst := mat.New(enc.ColsA, enc.ColsB)
	round := 0
	// AllocsPerRun's own warm-up call is the first round.
	allocs := testing.AllocsPerRun(3, func() {
		got, err := enc.DecodeInto(dst, partials, ws)
		if err != nil {
			t.Fatal(err)
		}
		if !got.ApproxEqual(want, 1e-9) {
			t.Fatalf("round %d: poly workspace decode mismatch", round)
		}
		round++
	})
	if allocs != 0 {
		t.Fatalf("poly DecodeInto allocates %v/op after the first round, want 0", allocs)
	}
}

// The polynomial decode keeps no per-worker-set state: rounds over every
// 9-subset of a (12,3,3) code — first with ten responders each skipping
// one segment, so each round's ten bands decode from ten different sets,
// then every 9-set with full ranges — allocate nothing after one warm-up
// round and decode the local product.
func TestPolyDecodeZeroAllocsUnderChurn(t *testing.T) {
	const n, ab, seg = 12, 9, 2
	rng := rand.New(rand.NewSource(46))
	code, err := NewPolyCode(n, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := mat.Rand(24, 3*(ab+1)*seg, rng) // BlockColsA = (ab+1)·seg: one segment per responder
	d := randVec(24, rng)
	enc, err := code.EncodeHessian(a)
	if err != nil {
		t.Fatal(err)
	}
	full := make([]*Partial, n)
	skip := make([][]*Partial, n) // skip[w][q]: worker w's partial without segment q
	for w := range full {
		full[w] = enc.WorkerCompute(w, d, []Range{{0, enc.BlockColsA}})
		for q := 0; q <= ab; q++ {
			skip[w] = append(skip[w], enc.WorkerCompute(w, d, []Range{{0, q * seg}, {(q + 1) * seg, enc.BlockColsA}}))
		}
	}
	// The ten-band rounds come first, so the warm-up sizes the workspace.
	var rounds [][]*Partial
	distinct := map[int]bool{}
	for _, size := range []int{ab + 1, ab} {
		for mask := 0; mask < 1<<n; mask++ {
			if bits.OnesCount(uint(mask)) != size {
				continue
			}
			var partials []*Partial
			for w, q := 0, 0; w < n; w++ {
				if mask&(1<<w) == 0 {
					continue
				}
				if size == ab {
					partials = append(partials, full[w])
					continue
				}
				partials = append(partials, skip[w][q])
				distinct[mask&^(1<<w)] = true
				q++
			}
			rounds = append(rounds, partials)
		}
	}
	if len(distinct) != 220 {
		t.Fatalf("the ten-band rounds decode from %d distinct sets, want all 220", len(distinct))
	}
	want := mat.ATDiagA(a, d)
	ws := enc.NewDecodeWorkspace()
	dst := mat.New(enc.ColsA, enc.ColsB)
	round := 0
	// AllocsPerRun's own warm-up call decodes round 0.
	allocs := testing.AllocsPerRun(len(rounds)-1, func() {
		if _, err := enc.DecodeInto(dst, rounds[round], ws); err != nil {
			t.Fatal(err)
		}
		if !dst.ApproxEqual(want, 1e-9) {
			t.Fatalf("round %d decodes differently from the local product", round)
		}
		round++
	})
	if allocs != 0 {
		t.Fatalf("rounds over every decode set allocate %v/op, want 0", allocs)
	}
}

func TestEncodeIntoReusesPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	code, err := NewMDSCode(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := mat.Rand(40, 8, rng)
	enc := code.Encode(a)
	parity := enc.Parts[4]
	b := mat.Rand(40, 8, rng)
	enc2 := code.EncodeInto(b, enc)
	if enc2 != enc || enc2.Parts[4] != parity {
		t.Fatal("EncodeInto did not reuse parity partition storage")
	}
	if &enc2.Parts[0].Data()[0] != &b.Data()[0] {
		t.Fatal("EncodeInto left systematic partition 0 viewing the previous matrix")
	}
	// Re-encoded partitions must decode the new matrix.
	x := make([]float64, 8)
	for i := range x {
		x[i] = rng.Float64()
	}
	var partials []*Partial
	for w := 0; w < 4; w++ {
		partials = append(partials, &Partial{
			Worker:   w,
			Ranges:   []Range{{0, enc2.BlockRows}},
			RowWidth: 1,
			Values:   mat.MatVec(enc2.Parts[w], x),
		})
	}
	got, err := enc2.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecApproxEqual(got, mat.MatVec(b, x), 1e-9) {
		t.Fatal("EncodeInto-reencoded matrix decodes wrong product")
	}
}

// The GF mirror of TestEncodeIntoReusesPartitions, with a padded last
// block and parity workers in the decode set: the re-encode keeps the
// parity and padding storage, views the new data, and decodes its product.
func TestGFEncodeIntoReusesPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	code, err := NewGFMDSCode(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	const rows, cols = 42, 8 // BlockRows 11: block 3 is padded
	enc, err := code.Encode(rows, cols, randGFData(rows*cols, rng))
	if err != nil {
		t.Fatal(err)
	}
	parity, pad := enc.Parts[4], enc.Parts[3]
	b := randGFData(rows*cols, rng)
	enc2, err := code.EncodeInto(rows, cols, b, enc)
	if err != nil {
		t.Fatal(err)
	}
	if enc2 != enc || enc2.Parts[4] != parity || enc2.Parts[3] != pad {
		t.Fatal("EncodeInto did not reuse parity and padding storage")
	}
	if &enc2.Parts[0].Data()[0] != &b[0] {
		t.Fatal("EncodeInto left systematic partition 0 viewing the previous data")
	}
	x := randGFData(cols, rng)
	var partials []*GFPartial
	for w := 2; w < 6; w++ {
		partials = append(partials, &GFPartial{
			Worker:   w,
			Ranges:   []Range{{0, enc2.BlockRows}},
			RowWidth: 1,
			Values:   gfMulVec(enc2.Parts[w], x),
		})
	}
	got, err := enc2.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, gfMatVec(rows, cols, b, x)) {
		t.Fatal("EncodeInto-reencoded data decodes a wrong product")
	}
}

// The GF worker computes share the float64 ones' Into bodies: after one
// warm-up call, reusing the partial allocates nothing, single-x or
// batched, and the values are those of a fresh partial.
func TestGFWorkerComputeIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	code, err := NewGFMDSCode(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	const rows, cols, width = 40, 12, 4
	enc, err := code.Encode(rows, cols, randGFData(rows*cols, rng))
	if err != nil {
		t.Fatal(err)
	}
	x, xs := randGFData(cols, rng), randGFData(width*cols, rng)
	ranges := []Range{{6, enc.BlockRows}, {0, 3}}
	single := enc.WorkerComputeInto(5, x, ranges, nil)
	batch := enc.WorkerComputeBatchInto(5, xs, width, ranges, nil)
	if a := testing.AllocsPerRun(50, func() { single = enc.WorkerComputeInto(5, x, ranges, single) }); a != 0 {
		t.Fatalf("WorkerComputeInto allocates %v/op after warm-up, want 0", a)
	}
	if a := testing.AllocsPerRun(50, func() { batch = enc.WorkerComputeBatchInto(5, xs, width, ranges, batch) }); a != 0 {
		t.Fatalf("WorkerComputeBatchInto allocates %v/op after warm-up, want 0", a)
	}
	wantSingle := enc.WorkerCompute(5, x, ranges)
	wantBatch := enc.WorkerComputeBatchInto(5, xs, width, ranges, nil)
	if !slices.Equal(single.Values, wantSingle.Values) || !slices.Equal(batch.Values, wantBatch.Values) {
		t.Fatal("reused partials differ from fresh ones")
	}
}

func TestGFDecodeIntoMatchesDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	rows, cols := 100, 10
	code, err := NewGFMDSCode(8, 6)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]gf.Elem, rows*cols)
	for i := range payload {
		payload[i] = gf.New(rng.Uint64())
	}
	enc, err := code.Encode(rows, cols, payload)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]gf.Elem, cols)
	for i := range x {
		x[i] = gf.New(rng.Uint64())
	}
	var partials []*GFPartial
	for _, w := range []int{0, 1, 2, 3, 6, 7} {
		p := enc.WorkerCompute(w, x, []Range{{0, enc.BlockRows}})
		partials = append(partials, p)
	}
	want, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	ws := enc.NewDecodeWorkspace()
	dst := make([]gf.Elem, enc.OrigRows)
	for round := 0; round < 3; round++ {
		got, err := enc.DecodeMatVecInto(dst, partials, ws)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: GF workspace decode differs at %d", round, i)
			}
		}
	}
}

// The exact decode keeps no per-worker-set state either: rounds whose
// responding sets churn through far more distinct decode sets than any
// per-set cache would hold — systematic and parity workers mixed, every
// worker skipping one segment so each band has its own set — allocate
// nothing after one warm-up round and decode bit-identically to a fresh
// DecodeMatVec.
func TestGFDecodeZeroAllocsUnderChurn(t *testing.T) {
	const n, k, cols, seg = 12, 6, 9, 5
	rng := rand.New(rand.NewSource(45))
	code, err := NewGFMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	rows := k * (k + 1) * seg // BlockRows = (k+1)·seg: one segment per responder
	data, x := randGFData(rows*cols, rng), randGFData(cols, rng)
	enc, err := code.Encode(rows, cols, data)
	if err != nil {
		t.Fatal(err)
	}
	var rounds [][]*GFPartial
	var wants [][]gf.Elem
	distinct := map[[k]int]bool{}
	for mask, m := 0, 0; mask < 1<<n; mask++ {
		if bits.OnesCount(uint(mask)) != k+1 {
			continue
		}
		if m++; m%9 != 0 {
			continue // spread the rounds over the whole subset space
		}
		var set []int
		for w := 0; w < n; w++ {
			if mask&(1<<w) != 0 {
				set = append(set, w)
			}
		}
		var partials []*GFPartial
		for q, w := range set {
			// The q-th responder skips segment q, so the band of segment q
			// decodes from the other k.
			p := enc.WorkerCompute(w, x, []Range{{0, q * seg}, {(q + 1) * seg, enc.BlockRows}})
			partials = append(partials, p)
			var dec [k]int
			copy(dec[:], slices.Delete(slices.Clone(set), q, q+1))
			distinct[dec] = true
		}
		want, err := enc.DecodeMatVec(partials)
		if err != nil {
			t.Fatal(err)
		}
		rounds, wants = append(rounds, partials), append(wants, want)
	}
	// More distinct decode sets than a 64-entry per-set cache would hold.
	const cacheSize = 64
	if len(distinct) <= cacheSize {
		t.Fatalf("only %d distinct decode sets, want more than %d", len(distinct), cacheSize)
	}
	truth := gfMatVec(rows, cols, data, x)
	ws := enc.NewDecodeWorkspace()
	dst := make([]gf.Elem, enc.OrigRows)
	round := 0
	// AllocsPerRun's own warm-up call decodes round 0.
	allocs := testing.AllocsPerRun(len(rounds)-1, func() {
		if _, err := enc.DecodeMatVecInto(dst, rounds[round], ws); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(dst, wants[round]) || !slices.Equal(dst, truth) {
			t.Fatalf("round %d decodes differently from DecodeMatVec or the local product", round)
		}
		round++
	})
	if allocs != 0 {
		t.Fatalf("rounds over %d distinct decode sets allocate %v/op, want 0", len(distinct), allocs)
	}
}
