package coding

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/coded-computing/s2c2/internal/gf"
)

func gfMatVec(rows, cols int, data, x []gf.Elem) []gf.Elem {
	y := make([]gf.Elem, rows)
	for i := 0; i < rows; i++ {
		var acc gf.Elem
		for j := 0; j < cols; j++ {
			acc = gf.Add(acc, gf.Mul(data[i*cols+j], x[j]))
		}
		y[i] = acc
	}
	return y
}

func randGFData(n int, rng *rand.Rand) []gf.Elem {
	out := make([]gf.Elem, n)
	for i := range out {
		out[i] = gf.New(rng.Uint64())
	}
	return out
}

// The headline MDS property, bit-exact: for random (n,k), any k of n
// full-partition results decode to exactly A·x.
func TestGFMDSAnyKOfNExactProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		k := 1 + r.Intn(n)
		rows := 1 + r.Intn(20)
		cols := 1 + r.Intn(5)
		data := randGFData(rows*cols, r)
		x := randGFData(cols, r)
		want := gfMatVec(rows, cols, data, x)

		c, err := NewGFMDSCode(n, k)
		if err != nil {
			return false
		}
		enc, err := c.Encode(rows, cols, data)
		if err != nil {
			return false
		}
		var partials []*GFPartial
		for _, w := range r.Perm(n)[:k] {
			p := enc.WorkerCompute(w, x, []Range{{0, enc.BlockRows}})
			partials = append(partials, p)
		}
		got, err := enc.DecodeMatVec(partials)
		if err != nil {
			return false
		}
		if len(got) != rows {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestGFMDSPartialCoverageExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	rows, cols := 24, 3
	data := randGFData(rows*cols, rng)
	x := randGFData(cols, rng)
	want := gfMatVec(rows, cols, data, x)

	c, _ := NewGFMDSCode(4, 2)
	enc, err := c.Encode(rows, cols, data)
	if err != nil {
		t.Fatal(err)
	}
	br := enc.BlockRows
	third := br / 3
	assignments := map[int][]Range{
		0: {{0, 2 * third}},
		1: {{0, third}, {2 * third, br}},
		2: {{third, br}},
	}
	var partials []*GFPartial
	for w, ranges := range assignments {
		p := enc.WorkerCompute(w, x, ranges)
		partials = append(partials, p)
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: got %d want %d", i, got[i], want[i])
		}
	}
}

// TestGFMDSBatchDecodeGrouped drives the band-wise decode through both of
// its boundary kinds: worker-set changes mid-block (short bands, including
// single-row ones) and a uniform-set block whose lane count forces the
// decodeChunkLanes cap to split one band's parity solve into several
// pieces. Every lane must decode bit-identical to the scalar reference.
func TestGFMDSBatchDecodeGrouped(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	check := func(t *testing.T, n, k, rows, cols, width int, assign func(br int) map[int][]Range) {
		t.Helper()
		data := randGFData(rows*cols, rng)
		xs := randGFData(width*cols, rng)
		c, err := NewGFMDSCode(n, k)
		if err != nil {
			t.Fatal(err)
		}
		enc, err := c.Encode(rows, cols, data)
		if err != nil {
			t.Fatal(err)
		}
		var partials []*GFPartial
		for w, ranges := range assign(enc.BlockRows) {
			p := enc.WorkerComputeBatchInto(w, xs, width, ranges, nil)
			partials = append(partials, p)
		}
		ws := enc.NewDecodeWorkspace()
		got, err := enc.DecodeMatVecInto(make([]gf.Elem, rows*width), partials, ws)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < width; l++ {
			want := gfMatVec(rows, cols, data, xs[l*cols:(l+1)*cols])
			for i := range want {
				if got[i*width+l] != want[i] {
					t.Fatalf("lane %d row %d: got %d want %d", l, i, got[i*width+l], want[i])
				}
			}
		}
		// A second decode through the same workspace must reuse its
		// storage and still be exact.
		got2, err := enc.DecodeMatVecInto(got, partials, ws)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < width; l++ {
			want := gfMatVec(rows, cols, data, xs[l*cols:(l+1)*cols])
			for i := range want {
				if got2[i*width+l] != want[i] {
					t.Fatalf("warm lane %d row %d: got %d want %d", l, i, got2[i*width+l], want[i])
				}
			}
		}
	}
	t.Run("alternating-sets", func(t *testing.T) {
		// Rows flip between {0,1} and {1,2} coverage every few rows, plus a
		// region all three cover — bands of 1..4 rows, systematic-only and
		// mixed.
		check(t, 3, 2, 24, 3, 5, func(br int) map[int][]Range {
			return map[int][]Range{
				0: {{0, 3}, {6, 9}, {12, br}},
				1: {{0, br}},
				2: {{3, 6}, {9, 12}, {12, br}},
			}
		})
	})
	t.Run("cap-split", func(t *testing.T) {
		// One worker set covers the whole block at width 256: with
		// BlockRows 32 the band holds 8192 lanes, above decodeChunkLanes,
		// so its parity solve must split into several pieces.
		check(t, 3, 2, 64, 2, 256, func(br int) map[int][]Range {
			if br*256 <= decodeChunkLanes {
				t.Fatalf("shape does not exceed the group cap: %d lanes", br*256)
			}
			return map[int][]Range{
				0: {{0, br}},
				2: {{0, br}},
			}
		})
	})
}

// TestGFCauchyParitySubmatricesNonsingular checks the MDS property of the
// systematic generator at its source: every square submatrix of the parity
// block C inverts through gf.InvertInto, and the product with the original
// is I, exhaustively over every row and column subset.
func TestGFCauchyParitySubmatricesNonsingular(t *testing.T) {
	for _, nk := range [][2]int{{4, 3}, {6, 4}, {8, 6}, {12, 6}, {12, 10}} {
		n, k := nk[0], nk[1]
		c, err := NewGFMDSCode(n, k)
		if err != nil {
			t.Fatal(err)
		}
		checked := 0
		for rmask := 1; rmask < 1<<(n-k); rmask++ {
			for cmask := 1; cmask < 1<<k; cmask++ {
				r := bits.OnesCount(uint(rmask))
				if bits.OnesCount(uint(cmask)) != r {
					continue
				}
				sub := gf.NewMatrixFromData(r, r, make([]gf.Elem, r*r))
				i := 0
				for pr := 0; pr < n-k; pr++ {
					if rmask&(1<<pr) == 0 {
						continue
					}
					q := 0
					for j := 0; j < k; j++ {
						if cmask&(1<<j) != 0 {
							sub.Set(i, q, generatorRow(c.gen, c.k, k+pr)[j])
							q++
						}
					}
					i++
				}
				inv := gf.NewMatrixFromData(r, r, make([]gf.Elem, r*r))
				if !gf.InvertInto(inv, sub, make([]gf.Elem, r*r)) {
					t.Fatalf("(%d,%d): parity rows %b, blocks %b: singular", n, k, rmask, cmask)
				}
				for i := 0; i < r; i++ {
					for j := 0; j < r; j++ {
						var acc gf.Elem
						for q := 0; q < r; q++ {
							acc = gf.Add(acc, gf.Mul(sub.At(i, q), inv.At(q, j)))
						}
						want := gf.Elem(0)
						if i == j {
							want = 1
						}
						if acc != want {
							t.Fatalf("(%d,%d): parity rows %b, blocks %b: (C·C⁻¹)[%d,%d] = %d", n, k, rmask, cmask, i, j, acc)
						}
					}
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("(%d,%d): no submatrix checked", n, k)
		}
	}
}

func TestGFMDSInsufficient(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	data := randGFData(12, rng)
	c, _ := NewGFMDSCode(4, 3)
	enc, err := c.Encode(6, 2, data)
	if err != nil {
		t.Fatal(err)
	}
	x := randGFData(2, rng)
	p := enc.WorkerCompute(0, x, []Range{{0, enc.BlockRows}})
	if _, err := enc.DecodeMatVec([]*GFPartial{p}); err == nil {
		t.Fatal("expected insufficient-coverage error")
	}
}

func TestGFMDSValidation(t *testing.T) {
	if _, err := NewGFMDSCode(2, 3); err == nil {
		t.Fatal("k>n must fail")
	}
	c, _ := NewGFMDSCode(3, 2)
	if _, err := c.Encode(2, 2, make([]gf.Elem, 3)); err == nil {
		t.Fatal("bad data length must fail")
	}
}
