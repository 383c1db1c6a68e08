package sched

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConventionalMDSPlan(t *testing.T) {
	c := &ConventionalMDS{N: 4, K: 2, BlockRows: 10}
	p, err := c.Plan([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		if p.RowsFor(w) != 10 {
			t.Fatalf("worker %d assigned %d rows, want full partition", w, p.RowsFor(w))
		}
	}
	if !delivered(p, 4).Covered() {
		t.Fatal("conventional MDS covers every row n times")
	}
	if _, err := c.Plan([]float64{1}); err == nil {
		t.Fatal("wrong speed count must fail")
	}
}

func TestBasicS2C2EqualSplit(t *testing.T) {
	// Figure 4c: (4,2) code, worker 3 a straggler, three equal workers.
	// Each live worker computes 2/3 of its partition; coverage exactly 2.
	b := &BasicS2C2{N: 4, K: 2, BlockRows: 9, Granularity: 3}
	p, err := b.Plan([]float64{1, 1, 1, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if p.RowsFor(3) != 0 {
		t.Fatalf("straggler assigned %d rows, want 0", p.RowsFor(3))
	}
	for w := 0; w < 3; w++ {
		if p.RowsFor(w) != 6 {
			t.Fatalf("worker %d assigned %d rows, want 6 (= 9·k/s)", w, p.RowsFor(w))
		}
	}
	for r, c := range delivered(p, 2).Cov {
		if c != 2 {
			t.Fatalf("row %d covered %d times, want exactly 2", r, c)
		}
	}
}

func TestBasicS2C2FallsBackWhenTooManyStragglers(t *testing.T) {
	// 3 of 4 nodes classified as stragglers but k=2: basic S2C2 must
	// re-admit enough nodes to keep the computation decodable.
	b := &BasicS2C2{N: 4, K: 2, BlockRows: 8, Granularity: 4}
	p, err := b.Plan([]float64{1, 0.01, 0.01, 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if !delivered(p, 2).Covered() {
		t.Fatal("coverage must still be k")
	}
}

func TestGeneralS2C2ProportionalAllocation(t *testing.T) {
	// Figure 5's numbers transposed to MDS: speeds {2,2,2,2,1}, k=4,
	// granularity 9 → allocations {8,8,8,8,4}.
	g := &GeneralS2C2{N: 5, K: 4, BlockRows: 9, Granularity: 9}
	p, err := g.Plan([]float64{2, 2, 2, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{8, 8, 8, 8, 4}
	for w, rows := range want {
		if p.RowsFor(w) != rows {
			t.Fatalf("worker %d assigned %d rows, want %d", w, p.RowsFor(w), rows)
		}
	}
	for r, c := range delivered(p, 4).Cov {
		if c != 4 {
			t.Fatalf("row %d covered %d times, want exactly 4", r, c)
		}
	}
}

func TestGeneralS2C2FastWorkerCapped(t *testing.T) {
	// One worker much faster than the rest: its allocation is capped at a
	// full partition and the excess spills to the next workers
	// (Algorithm 1's re-assignment clause).
	g := &GeneralS2C2{N: 4, K: 2, BlockRows: 12, Granularity: 12}
	p, err := g.Plan([]float64{100, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.RowsFor(0) != 12 {
		t.Fatalf("fast worker assigned %d rows, want full partition 12", p.RowsFor(0))
	}
	if !delivered(p, 2).Covered() {
		t.Fatal("coverage violated after capping")
	}
	if total := totalRows(p); total != 24 {
		t.Fatalf("total rows %d want k·blockRows = 24", total)
	}
}

func TestGeneralS2C2ErrorsWhenInfeasible(t *testing.T) {
	g := &GeneralS2C2{N: 3, K: 2, BlockRows: 6, Granularity: 6}
	if _, err := g.Plan([]float64{1, 0, 0}); err == nil {
		t.Fatal("fewer than k positive-speed workers must fail")
	}
	if _, err := g.Plan([]float64{1, 1}); err == nil {
		t.Fatal("wrong speed count must fail")
	}
}

func TestAllocateChunksRejectsBadSpeeds(t *testing.T) {
	if _, err := AllocateChunks([]float64{-1, 1}, 1, 4); err == nil {
		t.Fatal("negative speed must fail")
	}
}

// The decodability invariant, property-tested: for random worker counts,
// codes, granularities and speeds, every row is covered exactly k times
// and no worker exceeds its partition.
func TestGeneralS2C2CoverageProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(12)
		k := 1 + r.Intn(n)
		gran := n + r.Intn(4*n)
		blockRows := gran * (1 + r.Intn(5))
		speeds := make([]float64, n)
		positive := 0
		for i := range speeds {
			if r.Float64() < 0.2 {
				speeds[i] = 0 // dead node
			} else {
				speeds[i] = 0.1 + r.Float64()*5
				positive++
			}
		}
		g := &GeneralS2C2{N: n, K: k, BlockRows: blockRows, Granularity: gran}
		p, err := g.Plan(speeds)
		if positive < k {
			return err != nil // must refuse
		}
		if err != nil {
			return false
		}
		// Exactly k coverage everywhere.
		for _, c := range delivered(p, k).Cov {
			if c != k {
				return false
			}
		}
		// No worker exceeds its own partition and dead nodes get nothing.
		for w := 0; w < n; w++ {
			if p.RowsFor(w) > blockRows {
				return false
			}
			if speeds[w] == 0 && p.RowsFor(w) != 0 {
				return false
			}
		}
		return totalRows(p) == k*blockRows
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Faster workers never receive materially less work than slower ones.
// Integer rounding of chunk shares can invert near-equal speeds by at most
// one chunk, so the property allows that single-chunk slack.
func TestAllocationMonotonicityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 3 + r.Intn(10)
		k := 1 + r.Intn(n-1)
		m := 2 * n
		speeds := make([]float64, n)
		for i := range speeds {
			speeds[i] = 0.5 + r.Float64()*4
		}
		alloc, err := AllocateChunks(speeds, k, m)
		if err != nil {
			return false
		}
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if speeds[a] > speeds[b] && alloc[a] < alloc[b]-1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestChunkRowBounds(t *testing.T) {
	// The planner's chunk bands must partition [0, blockRows).
	blockRows, m := 10, 4
	covered := make([]int, blockRows)
	for c := 0; c < m; c++ {
		for _, r := range appendChunkRows(nil, c, c+1, blockRows, m) {
			for i := r.Lo; i < r.Hi; i++ {
				covered[i]++
			}
		}
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("row %d covered %d times by chunk bands", i, c)
		}
	}
}

func TestPlanAccounting(t *testing.T) {
	g := &GeneralS2C2{N: 4, K: 3, BlockRows: 12, Granularity: 12}
	p, err := g.Plan([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Assignments) != 4 {
		t.Fatal("worker count wrong")
	}
	if total := totalRows(p); total != 36 {
		t.Fatalf("total rows = %d want 36", total)
	}
	// Equal speeds: every worker gets exactly k/n of the work.
	for w := 0; w < 4; w++ {
		if p.RowsFor(w) != 9 {
			t.Fatalf("worker %d rows = %d want 9", w, p.RowsFor(w))
		}
	}
}
