package coding

import (
	"math/rand"
	"testing"

	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/mat"
)

// laneSlice extracts lane l of a width-wide batched partial as a width-1
// partial — the "decode one lane alone" reference for bit-exactness.
func gfLaneSlice(p *GFPartial, l int) *GFPartial {
	w := p.Width()
	rows := TotalRows(p.Ranges)
	vals := make([]gf.Elem, rows)
	for r := 0; r < rows; r++ {
		vals[r] = p.Values[r*w+l]
	}
	return &GFPartial{Worker: p.Worker, Ranges: p.Ranges, RowWidth: 1, Values: vals}
}

func floatLaneSlice(p *Partial, l int) *Partial {
	w := p.RowWidth
	rows := TotalRows(p.Ranges)
	vals := make([]float64, rows)
	for r := 0; r < rows; r++ {
		vals[r] = p.Values[r*w+l]
	}
	return &Partial{Worker: p.Worker, Ranges: p.Ranges, RowWidth: 1, Values: vals}
}

// Batched GF rounds are exact: a width-w compute-and-decode is bit-equal,
// lane by lane, to w independent single-x rounds over the same workers.
func TestGFMDSBatchedExactVsSingles(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, w := range []int{1, 2, 3, 4, 8} {
		for trial := 0; trial < 20; trial++ {
			n := 2 + rng.Intn(8)
			k := 1 + rng.Intn(n)
			rows := 1 + rng.Intn(25)
			cols := 1 + rng.Intn(7)
			data := randGFData(rows*cols, rng)
			xs := randGFData(w*cols, rng)

			c, err := NewGFMDSCode(n, k)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := c.Encode(rows, cols, data)
			if err != nil {
				t.Fatal(err)
			}
			workers := rng.Perm(n)[:k]
			var batched []*GFPartial
			for _, wk := range workers {
				p := enc.WorkerComputeBatchInto(wk, xs, w, []Range{{0, enc.BlockRows}}, nil)
				// Batched worker compute == per-lane single compute, exactly.
				for l := 0; l < w; l++ {
					single := enc.WorkerCompute(wk, xs[l*cols:(l+1)*cols], []Range{{0, enc.BlockRows}})
					for r := 0; r < enc.BlockRows; r++ {
						if p.Values[r*w+l] != single.Values[r] {
							t.Fatalf("w=%d worker=%d lane=%d row=%d: batch %d single %d", w, wk, l, r, p.Values[r*w+l], single.Values[r])
						}
					}
				}
				batched = append(batched, p)
			}
			got, err := enc.DecodeMatVec(batched)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != rows*w {
				t.Fatalf("w=%d decode length %d want %d", w, len(got), rows*w)
			}
			for l := 0; l < w; l++ {
				// Reference 1: direct exact mat-vec.
				want := gfMatVec(rows, cols, data, xs[l*cols:(l+1)*cols])
				// Reference 2: decoding this lane's partials alone.
				lanes := make([]*GFPartial, len(batched))
				for i, p := range batched {
					lanes[i] = gfLaneSlice(p, l)
				}
				alone, err := enc.DecodeMatVec(lanes)
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < rows; r++ {
					if got[r*w+l] != want[r] {
						t.Fatalf("w=%d lane=%d row=%d: decode %d want %d", w, l, r, got[r*w+l], want[r])
					}
					if got[r*w+l] != alone[r] {
						t.Fatalf("w=%d lane=%d row=%d: batched decode %d lane-alone decode %d", w, l, r, got[r*w+l], alone[r])
					}
				}
			}
		}
	}
}

// Batched GF decode works with S2C2-style partial coverage too: split
// ranges, every row covered by exactly k workers.
func TestGFMDSBatchedPartialCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	const n, k, rows, cols, w = 5, 3, 30, 6, 4
	data := randGFData(rows*cols, rng)
	xs := randGFData(w*cols, rng)
	c, err := NewGFMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := c.Encode(rows, cols, data)
	if err != nil {
		t.Fatal(err)
	}
	// Rotate k-of-n coverage bands across the partition rows.
	var partials []*GFPartial
	bands := 6
	per := (enc.BlockRows + bands - 1) / bands
	for b := 0; b < bands; b++ {
		lo := b * per
		hi := lo + per
		if hi > enc.BlockRows {
			hi = enc.BlockRows
		}
		if lo >= hi {
			break
		}
		for i := 0; i < k; i++ {
			wk := (b + i) % n
			p := enc.WorkerComputeBatchInto(wk, xs, w, []Range{{lo, hi}}, nil)
			partials = append(partials, p)
		}
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < w; l++ {
		want := gfMatVec(rows, cols, data, xs[l*cols:(l+1)*cols])
		for r := 0; r < rows; r++ {
			if got[r*w+l] != want[r] {
				t.Fatalf("lane=%d row=%d: decode %d want %d", l, r, got[r*w+l], want[r])
			}
		}
	}
}

// Float64 batched compute-and-decode: every lane approximates A·x_l, and
// the batched decode is bit-identical to decoding each lane's partials
// alone (the solves see identical right-hand sides either way).
func TestMDSBatchedDecodeMatchesPerLane(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, w := range []int{1, 2, 4, 8} {
		for trial := 0; trial < 10; trial++ {
			n := 3 + rng.Intn(6)
			k := 1 + rng.Intn(n)
			rows := k * (1 + rng.Intn(4))
			cols := 1 + rng.Intn(9)
			a := mat.Rand(rows, cols, rng)
			xs := randVec(w*cols, rng)

			c, err := NewMDSCode(n, k)
			if err != nil {
				t.Fatal(err)
			}
			enc := c.Encode(a)
			var batched []*Partial
			for _, wk := range rng.Perm(n)[:k] {
				batched = append(batched, enc.WorkerComputeBatchInto(wk, xs, w, []Range{{0, enc.BlockRows}}, nil))
			}
			got, err := enc.DecodeMatVec(batched)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != rows*w {
				t.Fatalf("w=%d decode length %d want %d", w, len(got), rows*w)
			}
			lane := make([]float64, rows)
			for l := 0; l < w; l++ {
				want := mat.MatVec(a, xs[l*cols:(l+1)*cols])
				for r := 0; r < rows; r++ {
					lane[r] = got[r*w+l]
				}
				if !mat.VecApproxEqual(lane, want, 1e-8) {
					t.Fatalf("w=%d lane=%d: decode drifted from A·x_l", w, l)
				}
				lanes := make([]*Partial, len(batched))
				for i, p := range batched {
					lanes[i] = floatLaneSlice(p, l)
				}
				alone, err := enc.DecodeMatVec(lanes)
				if err != nil {
					t.Fatal(err)
				}
				for r := 0; r < rows; r++ {
					if lane[r] != alone[r] {
						t.Fatalf("w=%d lane=%d row=%d: batched %v lane-alone %v", w, l, r, lane[r], alone[r])
					}
				}
			}
		}
	}
}

// Batched worker compute matches the single-x path lane by lane within
// rounding (the batch kernel uses a different accumulation order).
func TestWorkerComputeBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	a := mat.Rand(120, 33, rng) // BlockRows = 30 with k = 4
	c, _ := NewMDSCode(6, 4)
	enc := c.Encode(a)
	ranges := []Range{{2, 9}, {11, 17}}
	rows := TotalRows(ranges)
	for _, w := range []int{1, 2, 5, 8, 9} {
		xs := randVec(w*enc.Cols, rng)
		p := enc.WorkerComputeBatchInto(3, xs, w, ranges, nil)
		if p.RowWidth != w || len(p.Values) != rows*w {
			t.Fatalf("w=%d: RowWidth=%d len=%d", w, p.RowWidth, len(p.Values))
		}
		for l := 0; l < w; l++ {
			single := enc.WorkerCompute(3, xs[l*enc.Cols:(l+1)*enc.Cols], ranges)
			for r := 0; r < rows; r++ {
				if d := p.Values[r*w+l] - single.Values[r]; d > 1e-9 || d < -1e-9 {
					t.Fatalf("w=%d lane=%d row=%d: batch %v single %v", w, l, r, p.Values[r*w+l], single.Values[r])
				}
			}
		}
	}
}

// CompleteGFShares understands batched partials: width-wide vectors out,
// mixed widths rejected.
func TestCompleteGFSharesBatched(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	const rows, cols, w = 12, 5, 3
	data := randGFData(rows*cols, rng)
	xs := randGFData(w*cols, rng)
	c, err := NewGFMDSCode(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := c.Encode(rows, cols, data)
	if err != nil {
		t.Fatal(err)
	}
	// Worker 0 covers everything in two split partials; worker 1 only half.
	mid := enc.BlockRows / 2
	p0a := enc.WorkerComputeBatchInto(0, xs, w, []Range{{0, mid}}, nil)
	p0b := enc.WorkerComputeBatchInto(0, xs, w, []Range{{mid, enc.BlockRows}}, nil)
	p1 := enc.WorkerComputeBatchInto(1, xs, w, []Range{{0, mid}}, nil)
	vecs, err := CompleteGFShares([]*GFPartial{p0a, p0b, p1}, enc.BlockRows)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := vecs[1]; ok {
		t.Fatal("partially covered worker 1 should be omitted")
	}
	v := vecs[0]
	if len(v) != enc.BlockRows*w {
		t.Fatalf("share length %d want %d", len(v), enc.BlockRows*w)
	}
	full := enc.WorkerComputeBatchInto(0, xs, w, []Range{{0, enc.BlockRows}}, nil)
	for i := range v {
		if v[i] != full.Values[i] {
			t.Fatalf("share value %d: got %d want %d", i, v[i], full.Values[i])
		}
	}
	// Mixing widths in one share set is an error.
	single := enc.WorkerCompute(2, xs[:cols], []Range{{0, enc.BlockRows}})
	if _, err := CompleteGFShares([]*GFPartial{p0a, single}, enc.BlockRows); err == nil {
		t.Fatal("mixed widths should be rejected")
	}
}

// Mixed-width partial sets are rejected by the decoders.
func TestDecodeRejectsMixedWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(76))
	const rows, cols = 10, 4
	data := randGFData(rows*cols, rng)
	xs := randGFData(2*cols, rng)
	c, _ := NewGFMDSCode(3, 2)
	enc, _ := c.Encode(rows, cols, data)
	b := enc.WorkerComputeBatchInto(0, xs, 2, []Range{{0, enc.BlockRows}}, nil)
	s := enc.WorkerCompute(1, xs[:cols], []Range{{0, enc.BlockRows}})
	if _, err := enc.DecodeMatVec([]*GFPartial{b, s}); err == nil {
		t.Fatal("GF decode should reject mixed row widths")
	}
}
