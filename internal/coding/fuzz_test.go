package coding

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/coded-computing/s2c2/internal/mat"
)

// FuzzMDSDecode runs one round shape through both fields' codes: random
// (n ≤ 16, k) and padded row count, width 1–4, a random subset of row
// ranges per worker split over several partials, random arrival order and
// duplicate partials. A decode must succeed exactly when every row has k
// distinct covering workers; otherwise both fields fail with
// ErrInsufficient naming the same first short row. GF decodes must equal
// the local product, float64 ones match it within 1e-9 relative while a
// band's parity system has at most 3 rows (fuzzFloatTol).
func FuzzMDSDecode(f *testing.F) {
	for _, s := range []struct {
		seed        int64
		n, k, width uint8
	}{
		{1, 4, 2, 1}, {2, 10, 7, 4}, {3, 12, 6, 2}, {4, 12, 10, 3}, {5, 16, 8, 4},
		{6, 1, 1, 1}, {7, 5, 5, 2}, {8, 16, 1, 1}, {9, 16, 15, 4}, {10, 7, 3, 1},
	} {
		f.Add(s.seed, s.n, s.k, s.width)
	}
	f.Fuzz(func(t *testing.T, seed int64, nb, kb, wb uint8) {
		n := 1 + int(nb)%16
		k := 1 + int(kb)%n
		width := 1 + int(wb)%4
		rng := rand.New(rand.NewSource(seed))
		blockRows := 1 + rng.Intn(24)
		rows, cols := k*blockRows-rng.Intn(k), 1+rng.Intn(8)
		round := fuzzRound(rng, n, blockRows)

		// The first row short of k distinct workers, if any.
		short, cover := -1, 0
		for r := 0; r < blockRows && short < 0; r++ {
			var ws []int
			for _, d := range round {
				if !slices.Contains(ws, d.worker) && slices.ContainsFunc(d.ranges, func(g Range) bool { return g.Lo <= r && r < g.Hi }) {
					ws = append(ws, d.worker)
				}
			}
			if len(ws) < k {
				short, cover = r, len(ws)
			}
		}

		a := mat.Rand(rows, cols, rng)
		fx := make([]float64, width*cols)
		for i := range fx {
			fx[i] = 2*rng.Float64() - 1
		}
		data, gx := randGFData(rows*cols, rng), randGFData(width*cols, rng)
		fcode, err := NewMDSCode(n, k)
		if err != nil {
			t.Fatal(err)
		}
		gcode, err := NewGFMDSCode(n, k)
		if err != nil {
			t.Fatal(err)
		}
		fenc := fcode.Encode(a)
		genc, err := gcode.Encode(rows, cols, data)
		if err != nil {
			t.Fatal(err)
		}
		var fps []*Partial
		var gps []*GFPartial
		for _, d := range round {
			fps = append(fps, fenc.WorkerComputeBatchInto(d.worker, fx, width, d.ranges, nil))
			gps = append(gps, genc.WorkerComputeBatchInto(d.worker, gx, width, d.ranges, nil))
		}
		fgot, ferr := fenc.DecodeMatVec(fps)
		ggot, gerr := genc.DecodeMatVec(gps)
		if short >= 0 {
			want := fmt.Sprintf("row %d covered by %d of %d", short, cover, k)
			for _, err := range []error{ferr, gerr} {
				if !errors.Is(err, ErrInsufficient) || !strings.Contains(err.Error(), want) {
					t.Fatalf("n=%d k=%d: error %v, want ErrInsufficient naming %q", n, k, err, want)
				}
			}
			return
		}
		if ferr != nil || gerr != nil {
			t.Fatalf("n=%d k=%d: every row covered, but float64 %v, GF %v", n, k, ferr, gerr)
		}
		tol := fuzzFloatTol(min(k, n-k))
		for l := 0; l < width; l++ {
			fwant := mat.MatVec(a, fx[l*cols:(l+1)*cols])
			gwant := gfMatVec(rows, cols, data, gx[l*cols:(l+1)*cols])
			scale := 0.0
			for _, v := range fwant {
				scale = math.Max(scale, math.Abs(v))
			}
			for r := 0; r < rows; r++ {
				if ggot[r*width+l] != gwant[r] {
					t.Fatalf("n=%d k=%d: GF row %d lane %d = %d, want %d", n, k, r, l, ggot[r*width+l], gwant[r])
				}
				if d := math.Abs(fgot[r*width+l] - fwant[r]); d > tol*(1+scale) {
					t.Fatalf("n=%d k=%d: float64 row %d lane %d off by %g, want within %g relative", n, k, r, l, d/(1+scale), tol)
				}
			}
		}
	})
}

// fuzzFloatTol is the float64 code's relative decode error bound when a
// band's parity system can have q = min(k, n−k) rows. The Cauchy systems
// grow ill-conditioned with q and n: over 200 000 random rounds of this
// fuzz shape (n ≤ 16) the worst relative error was 6e-10 at q = 4 (16,12),
// 2e-9 at q = 5 (16,5), 3e-8 at q = 6 (16,6) and 1e-7 at q = 8 (16,8).
// 1e-9 holds to q = 3; beyond, the bound only tells a wrong decode (an
// O(1) error) from rounding.
func fuzzFloatTol(q int) float64 {
	if q <= 3 {
		return 1e-9
	}
	return 1e-5
}

// fuzzRound draws each worker's rows — nothing, the whole partition, or
// up to three random (possibly overlapping, unsorted) ranges — splits
// them over one or two partials, adds duplicates of random partials and
// shuffles the arrival order.
func fuzzRound(rng *rand.Rand, n, blockRows int) []delivery {
	var out []delivery
	for w := 0; w < n; w++ {
		var rs []Range
		switch rng.Intn(4) {
		case 0:
			continue
		case 1, 2:
			rs = []Range{{0, blockRows}}
		default:
			for j := 1 + rng.Intn(3); j > 0; j-- {
				lo := rng.Intn(blockRows)
				rs = append(rs, Range{lo, lo + 1 + rng.Intn(blockRows-lo)})
			}
		}
		if cut := rng.Intn(len(rs) + 1); cut > 0 && cut < len(rs) {
			out = append(out, delivery{w, rs[:cut]}, delivery{w, rs[cut:]})
		} else {
			out = append(out, delivery{w, rs})
		}
	}
	for dup := rng.Intn(3); dup > 0 && len(out) > 0; dup-- {
		out = append(out, out[rng.Intn(len(out))])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
