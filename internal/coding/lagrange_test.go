package coding

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/kernel"
)

func TestLagrangeValidation(t *testing.T) {
	if _, err := NewLagrangeCode(2, 3); err == nil {
		t.Fatal("n < k must fail")
	}
	c, err := NewLagrangeCode(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.K() != 3 || c.N() != 9 {
		t.Fatal("dims wrong")
	}
	if c.RecoveryThreshold(2) != 5 {
		t.Fatalf("threshold(2) = %d want (3-1)*2+1 = 5", c.RecoveryThreshold(2))
	}
}

func TestLagrangeSystematicPrefix(t *testing.T) {
	c, _ := NewLagrangeCode(6, 3)
	blocks := [][]gf.Elem{{1, 2}, {3, 4}, {5, 6}}
	shares, err := c.Encode(blocks)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		for e := range blocks[j] {
			if shares[j][e] != blocks[j][e] {
				t.Fatalf("share %d not systematic", j)
			}
		}
	}
}

func TestLagrangeLinearRoundTrip(t *testing.T) {
	// Degree-1 computation: f = identity. Any k shares decode the data —
	// Lagrange coding degenerates to an MDS code.
	rng := rand.New(rand.NewSource(1))
	c, _ := NewLagrangeCode(7, 4)
	blocks := randomBlocks(4, 10, rng)
	shares, err := c.Encode(blocks)
	if err != nil {
		t.Fatal(err)
	}
	results := map[int][]gf.Elem{}
	for _, w := range rng.Perm(7)[:4] {
		results[w] = shares[w]
	}
	got, err := c.Decode(results, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertBlocksEqual(t, got, blocks)
}

func TestLagrangeQuadraticComputation(t *testing.T) {
	// f(x) = x² + 3x + 7 elementwise (degree 2): any (k−1)·2+1 results
	// decode f(X_j) for every block, including from parity-only shares.
	rng := rand.New(rand.NewSource(2))
	n, k := 9, 3
	c, _ := NewLagrangeCode(n, k)
	blocks := randomBlocks(k, 16, rng)
	shares, err := c.Encode(blocks)
	if err != nil {
		t.Fatal(err)
	}
	f := func(x gf.Elem) gf.Elem {
		return gf.Add(gf.Add(gf.Mul(x, x), gf.Mul(3, x)), 7)
	}
	results := map[int][]gf.Elem{}
	// Use only non-systematic shares 3..8 — still ≥ threshold 5.
	for w := 3; w < 9; w++ {
		out := make([]gf.Elem, len(shares[w]))
		for e, v := range shares[w] {
			out[e] = f(v)
		}
		results[w] = out
	}
	got, err := c.Decode(results, 2)
	if err != nil {
		t.Fatal(err)
	}
	for j, b := range blocks {
		for e, v := range b {
			if got[j][e] != f(v) {
				t.Fatalf("block %d elem %d: got %d want %d", j, e, got[j][e], f(v))
			}
		}
	}
}

func TestLagrangeCubicProperty(t *testing.T) {
	// Property: for random (n,k) with capacity for degree-3 computation,
	// any threshold-sized subset of f(shares) decodes f(blocks) exactly,
	// with f(x) = x³ + 5.
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		k := 2 + r.Intn(3) // 2..4
		n := (k-1)*3 + 1 + r.Intn(4)
		c, err := NewLagrangeCode(n, k)
		if err != nil {
			return false
		}
		blocks := randomBlocks(k, 1+r.Intn(8), r)
		shares, err := c.Encode(blocks)
		if err != nil {
			return false
		}
		cube := func(x gf.Elem) gf.Elem { return gf.Add(gf.Mul(gf.Mul(x, x), x), 5) }
		results := map[int][]gf.Elem{}
		for _, w := range r.Perm(n)[:c.RecoveryThreshold(3)] {
			out := make([]gf.Elem, len(shares[w]))
			for e, v := range shares[w] {
				out[e] = cube(v)
			}
			results[w] = out
		}
		got, err := c.Decode(results, 3)
		if err != nil {
			return false
		}
		for j, b := range blocks {
			for e, v := range b {
				if got[j][e] != cube(v) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestLagrangeInsufficient(t *testing.T) {
	c, _ := NewLagrangeCode(5, 3)
	blocks := [][]gf.Elem{{1}, {2}, {3}}
	shares, _ := c.Encode(blocks)
	results := map[int][]gf.Elem{0: shares[0], 1: shares[1], 2: shares[2], 3: shares[3]}
	// Degree 2 needs (3−1)·2+1 = 5 results; 4 must fail.
	if _, err := c.Decode(results, 2); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("want ErrInsufficient, got %v", err)
	}
}

func TestLagrangeEncodeErrors(t *testing.T) {
	c, _ := NewLagrangeCode(4, 2)
	if _, err := c.Encode([][]gf.Elem{{1}}); err == nil {
		t.Fatal("wrong block count must fail")
	}
	if _, err := c.Encode([][]gf.Elem{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged blocks must fail")
	}
}

func TestLagrangeDecodeErrors(t *testing.T) {
	c, _ := NewLagrangeCode(4, 2)
	blocks := [][]gf.Elem{{1, 2}, {3, 4}}
	shares, _ := c.Encode(blocks)
	bad := map[int][]gf.Elem{0: shares[0], 9: shares[1]}
	if _, err := c.Decode(bad, 1); err == nil {
		t.Fatal("unknown worker index must fail")
	}
	mixed := map[int][]gf.Elem{0: shares[0], 1: shares[1][:1]}
	if _, err := c.Decode(mixed, 1); err == nil {
		t.Fatal("mixed result lengths must fail")
	}
}

func randomBlocks(k, size int, rng *rand.Rand) [][]gf.Elem {
	blocks := make([][]gf.Elem, k)
	for j := range blocks {
		b := make([]gf.Elem, size)
		for e := range b {
			b[e] = gf.New(rng.Uint64())
		}
		blocks[j] = b
	}
	return blocks
}

func assertBlocksEqual(t *testing.T, got, want [][]gf.Elem) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("block count %d want %d", len(got), len(want))
	}
	for j := range want {
		for e := range want[j] {
			if got[j][e] != want[j][e] {
				t.Fatalf("block %d elem %d: got %d want %d", j, e, got[j][e], want[j][e])
			}
		}
	}
}

// TestLagrangeEncodeIntoMatchesEncode pins the share-reuse path: EncodeInto
// over a warm destination must reuse every share's storage and produce
// exactly the shares a fresh Encode produces.
// TestCompleteGFShares pins the share-assembly contract: split partials
// merge into one complete vector per worker, workers with partial
// coverage are omitted, duplicates are benign, and malformed partials
// are rejected.
func TestCompleteGFShares(t *testing.T) {
	const blockRows = 5
	partials := []*GFPartial{
		// Worker 0: complete, split across two partials (out of order).
		{Worker: 0, Ranges: []Range{{Lo: 2, Hi: 5}}, Values: []gf.Elem{12, 13, 14}},
		{Worker: 0, Ranges: []Range{{Lo: 0, Hi: 2}}, Values: []gf.Elem{10, 11}},
		// Worker 1: incomplete (rows 0..3 only).
		{Worker: 1, Ranges: []Range{{Lo: 0, Hi: 3}}, Values: []gf.Elem{20, 21, 22}},
		// Worker 2: complete in one partial, plus a duplicate delivery.
		{Worker: 2, Ranges: []Range{{Lo: 0, Hi: 5}}, Values: []gf.Elem{30, 31, 32, 33, 34}},
		{Worker: 2, Ranges: []Range{{Lo: 1, Hi: 3}}, Values: []gf.Elem{31, 32}},
	}
	shares, err := CompleteGFShares(partials, blockRows)
	if err != nil {
		t.Fatal(err)
	}
	if len(shares) != 2 {
		t.Fatalf("%d complete shares, want 2 (workers 0 and 2)", len(shares))
	}
	if _, ok := shares[1]; ok {
		t.Fatal("incomplete worker 1 must be omitted")
	}
	for i, v := range []gf.Elem{10, 11, 12, 13, 14} {
		if shares[0][i] != v {
			t.Fatalf("worker 0 row %d = %d, want %d", i, shares[0][i], v)
		}
	}
	for i, v := range []gf.Elem{30, 31, 32, 33, 34} {
		if shares[2][i] != v {
			t.Fatalf("worker 2 row %d = %d, want %d", i, shares[2][i], v)
		}
	}
	// Malformed: range outside the partition.
	if _, err := CompleteGFShares([]*GFPartial{
		{Worker: 0, Ranges: []Range{{Lo: 0, Hi: 6}}, Values: make([]gf.Elem, 6)},
	}, blockRows); err == nil {
		t.Fatal("out-of-range partial must be rejected")
	}
	// Malformed: value count does not match the ranges.
	if _, err := CompleteGFShares([]*GFPartial{
		{Worker: 0, Ranges: []Range{{Lo: 0, Hi: 2}}, Values: make([]gf.Elem, 3)},
	}, blockRows); err == nil {
		t.Fatal("count-mismatched partial must be rejected")
	}
}

func TestLagrangeEncodeIntoMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	c, err := NewLagrangeCode(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	const size = 64
	newBlocks := func() [][]gf.Elem {
		blocks := make([][]gf.Elem, 3)
		for j := range blocks {
			blocks[j] = make([]gf.Elem, size)
			for e := range blocks[j] {
				blocks[j][e] = gf.New(rng.Uint64())
			}
		}
		return blocks
	}
	blocks := newBlocks()
	dst, err := c.EncodeInto(nil, blocks)
	if err != nil {
		t.Fatal(err)
	}
	base := make([]*gf.Elem, len(dst))
	for i := range dst {
		base[i] = &dst[i][0]
	}
	for round := 0; round < 3; round++ {
		blocks = newBlocks() // iterative job: the data changes every round
		want, err := c.Encode(blocks)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.EncodeInto(dst, blocks)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if &got[i][0] != base[i] {
				t.Fatalf("round %d: share %d storage was reallocated", round, i)
			}
			for e := range want[i] {
				if got[i][e] != want[i][e] {
					t.Fatalf("round %d: share %d element %d: %d != %d", round, i, e, got[i][e], want[i][e])
				}
			}
		}
	}
	if _, err := c.EncodeInto(make([][]gf.Elem, 2), blocks); err == nil {
		t.Fatal("EncodeInto must reject a dst with the wrong share count")
	}
}

// TestLagrangeEncodeIntoZeroAllocsSteadyState is the re-encode alloc
// regression: iterative Lagrange jobs re-encoding into a warm destination
// must not allocate. Pinned on the serial path — parallel dispatch adds
// one closure allocation by design (Pool.For documents it).
func TestLagrangeEncodeIntoZeroAllocsSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	c, err := NewLagrangeCode(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	c.SetExec(kernel.Exec{MaxFan: 1})
	const size = 256
	blocks := make([][]gf.Elem, 4)
	for j := range blocks {
		blocks[j] = make([]gf.Elem, size)
		for e := range blocks[j] {
			blocks[j][e] = gf.New(rng.Uint64())
		}
	}
	dst, err := c.EncodeInto(nil, blocks)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		var err error
		dst, err = c.EncodeInto(dst, blocks)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("EncodeInto allocates %v/op in steady state, want 0", allocs)
	}
}
