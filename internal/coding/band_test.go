package coding

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/mat"
)

// Property tests for the band walk: over random partial sets the
// band-wise decoders must agree with the per-row reference decoders
// (reference_test.go) — GF(2³¹−1) bit for bit, float64 within the
// decode tolerance.

// delivery is one partial's worth of rows from one worker.
type delivery struct {
	worker int
	ranges []Range
}

// randomCoverage draws one round's worth of (worker, ranges) deliveries
// in arrival order: every row of [0, blockRows) ends up covered by at
// least k distinct workers (a cyclic base window of k..n workers per row
// chunk), then the deliveries are roughened the way the runtime roughens
// them — one worker's rows split over several partials, reassigned extras
// covering rows other workers already hold, outright duplicates,
// overlapping and unsorted ranges inside one partial — and shuffled.
func randomCoverage(rng *rand.Rand, n, k, blockRows int) []delivery {
	perWorker := make([][]Range, n)
	// Base: cut the rows into chunks; chunk c is held by cover consecutive
	// workers starting at a random offset.
	for lo := 0; lo < blockRows; {
		hi := min(lo+1+rng.Intn(max(blockRows/3, 1)), blockRows)
		cover := k + rng.Intn(n-k+1)
		start := rng.Intn(n)
		for j := 0; j < cover; j++ {
			w := (start + j) % n
			perWorker[w] = append(perWorker[w], Range{lo, hi})
		}
		lo = hi
	}
	var out []delivery
	for w, rs := range perWorker {
		// Split the worker's ranges over one to three partials.
		parts := 1 + rng.Intn(3)
		split := make([][]Range, parts)
		for _, r := range rs {
			p := rng.Intn(parts)
			if r.Len() > 1 && rng.Intn(3) == 0 {
				// Cut one range in two, possibly across partials.
				mid := r.Lo + 1 + rng.Intn(r.Len()-1)
				split[p] = append(split[p], Range{r.Lo, mid})
				p = rng.Intn(parts)
				r = Range{mid, r.Hi}
			}
			split[p] = append(split[p], r)
		}
		for _, s := range split {
			if len(s) > 0 {
				rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
				out = append(out, delivery{w, s})
			}
		}
	}
	// Reassigned extras and late duplicates: arbitrary rows from arbitrary
	// workers, sometimes overlapping within the partial itself.
	for extra := rng.Intn(4); extra > 0; extra-- {
		var rs []Range
		for j := 1 + rng.Intn(2); j > 0; j-- {
			lo := rng.Intn(blockRows)
			rs = append(rs, Range{lo, lo + 1 + rng.Intn(blockRows-lo)})
		}
		out = append(out, delivery{rng.Intn(n), rs})
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func TestBandDecodeMatchesPerRowReferenceGF(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(9)
		k := 1 + rng.Intn(n)
		width := []int{1, 2, 3, 8}[rng.Intn(4)]
		blockRows := 1 + rng.Intn(40)
		rows := k*blockRows - rng.Intn(k) // exercise zero padding
		cols := 1 + rng.Intn(12)
		data := make([]gf.Elem, rows*cols)
		for i := range data {
			data[i] = gf.New(uint64(rng.Uint32()))
		}
		xs := make([]gf.Elem, width*cols)
		for i := range xs {
			xs[i] = gf.New(uint64(rng.Uint32()))
		}
		code, err := NewGFMDSCode(n, k)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := code.Encode(rows, cols, data)
		if err != nil {
			t.Fatal(err)
		}
		// Odd trials decode the true worker outputs; even trials decode
		// arbitrary values, so duplicate (worker, row) copies disagree and
		// "the last registered copy wins" is pinned too.
		arbitrary := trial%2 == 0
		var partials []*GFPartial
		for _, d := range randomCoverage(rng, n, k, enc.BlockRows) {
			w, ranges := d.worker, d.ranges
			vals := make([]gf.Elem, TotalRows(ranges)*width)
			at := 0
			for _, r := range ranges {
				enc.Parts[w].MulVecBatchRangeInto(vals[at:at+r.Len()*width], xs, width, r.Lo, r.Hi)
				at += r.Len() * width
			}
			if arbitrary {
				for i := range vals {
					vals[i] = gf.New(uint64(rng.Uint32()))
				}
			}
			partials = append(partials, &GFPartial{Worker: w, Ranges: ranges, RowWidth: width, Values: vals})
		}
		want, err := refGFDecodeMatVec(enc, partials)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		ws := enc.NewDecodeWorkspace()
		for round := 0; round < 2; round++ { // second round reuses the table
			got, err := enc.DecodeMatVecInto(nil, partials, ws)
			if err != nil {
				t.Fatalf("trial %d: band-wise: %v", trial, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("trial %d (n=%d k=%d w=%d rows=%d) round %d: row %d lane %d: band-wise %d, per-row %d",
						trial, n, k, width, rows, round, i/width, i%width, got[i], want[i])
				}
			}
		}
		if !arbitrary {
			for l := 0; l < width; l++ {
				truth := gfMulVec(gf.NewMatrixFromData(rows, cols, data), xs[l*cols:(l+1)*cols])
				for r := range truth {
					if want[r*width+l] != truth[r] {
						t.Fatalf("trial %d: reference decode differs from A·x at row %d lane %d", trial, r, l)
					}
				}
			}
		}
	}
}

func TestBandDecodeMatchesPerRowReferenceFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(212))
	for trial := 0; trial < 150; trial++ {
		n := 2 + rng.Intn(9)
		k := 1 + rng.Intn(n)
		if n-k > 5 {
			k = n - 5 // keep the Cauchy decode systems in the paper's regime
		}
		width := []int{1, 2, 3, 8}[rng.Intn(4)]
		blockRows := 1 + rng.Intn(40)
		rows := k*blockRows - rng.Intn(k)
		cols := 1 + rng.Intn(12)
		a := mat.Rand(rows, cols, rng)
		xs := randVec(width*cols, rng)
		code, err := NewMDSCode(n, k)
		if err != nil {
			t.Fatal(err)
		}
		enc := code.Encode(a)
		var partials []*Partial
		for _, d := range randomCoverage(rng, n, k, enc.BlockRows) {
			w, ranges := d.worker, d.ranges
			vals := make([]float64, TotalRows(ranges)*width)
			at := 0
			for _, r := range ranges {
				kernel.MatVecRangeBatch(vals[at:at+r.Len()*width], enc.Parts[w].Data(), cols, xs, width, r.Lo, r.Hi)
				at += r.Len() * width
			}
			partials = append(partials, &Partial{Worker: w, Ranges: ranges, RowWidth: width, Values: vals})
		}
		want, err := refDecodeMatVec(enc, partials)
		if err != nil {
			t.Fatalf("trial %d: reference: %v", trial, err)
		}
		scale := 0.0
		for _, v := range want {
			scale = math.Max(scale, math.Abs(v))
		}
		ws := enc.NewDecodeWorkspace()
		for round := 0; round < 2; round++ {
			got, err := enc.DecodeMatVecInto(nil, partials, ws)
			if err != nil {
				t.Fatalf("trial %d: band-wise: %v", trial, err)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9*(1+scale) {
					t.Fatalf("trial %d (n=%d k=%d w=%d rows=%d) round %d: row %d lane %d: band-wise %v, per-row %v",
						trial, n, k, width, rows, round, i/width, i%width, got[i], want[i])
				}
			}
		}
	}
}

// A row short of k workers must fail identically — same sentinel, same
// first uncovered row — in the band walk and the per-row reference.
func TestBandDecodeInsufficientMatchesReference(t *testing.T) {
	code, _ := NewGFMDSCode(5, 3)
	data := make([]gf.Elem, 30*4)
	enc, _ := code.Encode(30, 4, data)
	x := make([]gf.Elem, 4)
	full := []Range{{0, enc.BlockRows}}
	var partials []*GFPartial
	for _, w := range []int{4, 1} {
		p := enc.WorkerCompute(w, x, full)
		partials = append(partials, p)
	}
	// A third worker that skips rows [6, 8).
	p := enc.WorkerCompute(2, x, []Range{{0, 6}, {8, enc.BlockRows}})
	partials = append(partials, p)
	_, refErr := refGFDecodeMatVec(enc, partials)
	_, err := enc.DecodeMatVec(partials)
	if !errors.Is(err, ErrInsufficient) || !errors.Is(refErr, ErrInsufficient) {
		t.Fatalf("want ErrInsufficient from both, got band-wise %v, per-row %v", err, refErr)
	}
	if err.Error() != refErr.Error() {
		t.Fatalf("band-wise %q, per-row %q", err, refErr)
	}
}

// The band count depends on the range boundaries only: doubling every
// band's rows must leave the table's band list the same length, and a
// boundary contributed by a span nobody selects must not split a band.
func TestRowTableBandsIndependentOfBandRows(t *testing.T) {
	build := func(scale int) *rowTable[float64] {
		var tb rowTable[float64]
		tb.reset(12 * scale)
		add := func(w, lo, hi int) {
			if err := tb.add(w, []Range{{lo * scale, hi * scale}}, make([]float64, (hi-lo)*scale), 1); err != nil {
				t.Fatal(err)
			}
		}
		add(0, 0, 12)
		add(1, 0, 8)
		add(2, 8, 12)
		add(3, 3, 5) // arrives after k=2 are already covering: never selected
		if err := tb.bands(2); err != nil {
			t.Fatal(err)
		}
		return &tb
	}
	small, large := build(1), build(64)
	if len(small.list) != 2 || len(large.list) != 2 {
		t.Fatalf("bands: %d at scale 1, %d at scale 64, want 2 and 2", len(small.list), len(large.list))
	}
	if got := small.workers(nil, small.list[1]); !slices.Equal(got, []int{0, 2}) || small.list[1].lo != 8 {
		t.Fatalf("second band = rows from %d, workers %v; want from 8, [0 2]", small.list[1].lo, got)
	}
}

// At the codes the benchmark workloads run — dram-matvec's (4,3),
// straggler-mix's (6,4), sim-paper's (12,6) and (12,10) — and for every
// parity count p a decode set can hold, the parity-only band decode must
// land as close to A·x as the per-row k×k reference does on the same
// partials: over five sets per p, its worst error within twice the
// reference's (plus a few ulps of the output scale, for the sets both
// decode to rounding level). (12,6) at p = 6 is the all-parity set {6…11},
// a full 6×6 Cauchy system, which the random-coverage test above never
// reaches.
func TestParityDecodeAccuracyAtBenchmarkCodes(t *testing.T) {
	rng := rand.New(rand.NewSource(213))
	for _, c := range []struct{ n, k int }{{4, 3}, {6, 4}, {12, 6}, {12, 10}} {
		code, err := NewMDSCode(c.n, c.k)
		if err != nil {
			t.Fatal(err)
		}
		a := mat.Rand(c.k*40, 48, rng)
		x := randVec(48, rng)
		enc := code.Encode(a)
		truth := mat.MatVec(a, x)
		scale := 0.0
		for _, v := range truth {
			scale = math.Max(scale, math.Abs(v))
		}
		maxErr := func(worst float64, got []float64) float64 {
			for i, v := range got {
				worst = math.Max(worst, math.Abs(v-truth[i])/scale)
			}
			return worst
		}
		for p := 0; p <= min(c.k, c.n-c.k); p++ {
			// The last p parity workers with the first k−p data blocks, then
			// random sets of the same parity count.
			sets := [][]int{append(seq(0, c.k-p), seq(c.n-p, c.n)...)}
			for trial := 0; trial < 4; trial++ {
				sys := rng.Perm(c.k)[:c.k-p]
				par := rng.Perm(c.n - c.k)[:p]
				for i := range par {
					par[i] += c.k
				}
				sets = append(sets, append(sys, par...))
			}
			gotErr, refErr := 0.0, 0.0
			for _, set := range sets {
				var partials []*Partial
				for _, w := range set {
					partials = append(partials, enc.WorkerCompute(w, x, []Range{{0, enc.BlockRows}}))
				}
				got, err := enc.DecodeMatVec(partials)
				if err != nil {
					t.Fatalf("(%d,%d) set %v: %v", c.n, c.k, set, err)
				}
				ref, err := refDecodeMatVec(enc, partials)
				if err != nil {
					t.Fatalf("(%d,%d) set %v: reference: %v", c.n, c.k, set, err)
				}
				gotErr, refErr = maxErr(gotErr, got), maxErr(refErr, ref)
			}
			t.Logf("(%d,%d) p=%d: relative error %.3g parity-only, %.3g k×k reference", c.n, c.k, p, gotErr, refErr)
			if gotErr > 2*refErr+4*0x1p-52 {
				t.Errorf("(%d,%d) p=%d: parity-only error %.3g exceeds twice the k×k reference's %.3g",
					c.n, c.k, p, gotErr, refErr)
			}
		}
	}
}

// seq returns lo, lo+1, …, hi−1.
func seq(lo, hi int) []int {
	s := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		s = append(s, i)
	}
	return s
}
