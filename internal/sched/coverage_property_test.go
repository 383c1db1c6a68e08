package sched

import (
	"math/rand"
	"testing"
)

// The cyclic S2C2 layout's central invariant is that every partition row
// is covered by EXACTLY k workers — not merely at least k. At-least-k is
// what decoding needs; exactly-k is what Algorithm 1 promises (k·m chunk
// computations, no duplicated work). This property test hammers the
// layout with adversarial granularities: m not dividing BlockRows, m
// larger than BlockRows (capped internally), granularity 1, and worker
// populations with zero-speed members.
func TestCyclicLayoutCoversEveryRowExactlyK(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	check := func(t *testing.T, n, k, blockRows, gran int, speeds []float64) {
		t.Helper()
		g := &GeneralS2C2{N: n, K: k, BlockRows: blockRows, Granularity: gran}
		plan, err := g.Plan(speeds)
		if err != nil {
			t.Fatalf("n=%d k=%d rows=%d m=%d speeds=%v: %v", n, k, blockRows, gran, speeds, err)
		}
		// Each worker's assignment must stay within one partition.
		for w, ranges := range plan.Assignments {
			for _, r := range ranges {
				if r.Lo < 0 || r.Hi > blockRows || r.Lo >= r.Hi {
					t.Fatalf("worker %d has invalid range [%d,%d) in [0,%d)", w, r.Lo, r.Hi, blockRows)
				}
			}
		}
		for row, c := range delivered(plan, k).Cov {
			if c != k {
				t.Fatalf("n=%d k=%d rows=%d m=%d speeds=%v: row %d covered %d times, want exactly %d\nassignments: %v",
					n, k, blockRows, gran, speeds, row, c, k, plan.Assignments)
			}
		}
		// Exactly k distinct workers per row and k·BlockRows assigned rows
		// in all: no worker is handed a row twice.
		if total := totalRows(plan); total != k*blockRows {
			t.Fatalf("n=%d k=%d rows=%d m=%d speeds=%v: %d rows assigned, want k·BlockRows = %d\nassignments: %v",
				n, k, blockRows, gran, speeds, total, k*blockRows, plan.Assignments)
		}
	}

	t.Run("adversarial-fixed", func(t *testing.T) {
		// Hand-picked corners: m ∤ BlockRows, m > BlockRows, m = 1, k = n,
		// a single-row partition, and zero-speed workers in every position.
		check(t, 4, 2, 30, 7, []float64{1, 1, 1, 1})           // 7 ∤ 30
		check(t, 4, 2, 5, 100, []float64{1, 1, 1, 1})          // m > BlockRows
		check(t, 4, 3, 12, 1, []float64{1, 1, 1, 1})           // single chunk
		check(t, 5, 5, 9, 13, []float64{1, 2, 3, 4, 5})        // k = n
		check(t, 3, 2, 1, 4, []float64{1, 1, 1})               // single-row partition
		check(t, 4, 2, 30, 8, []float64{0, 1, 1, 1})           // dead worker, head
		check(t, 4, 2, 30, 8, []float64{1, 1, 1, 0})           // dead worker, tail
		check(t, 6, 3, 50, 11, []float64{0, 0, 1, 1, 1, 0.01}) // two dead + crawler
	})

	t.Run("randomized", func(t *testing.T) {
		for trial := 0; trial < 500; trial++ {
			n := 2 + rng.Intn(12)
			k := 1 + rng.Intn(n)
			blockRows := 1 + rng.Intn(200)
			gran := 1 + rng.Intn(3*blockRows+2*n) // frequently ∤ BlockRows, often > BlockRows
			speeds := make([]float64, n)
			positive := 0
			for i := range speeds {
				switch rng.Intn(4) {
				case 0:
					speeds[i] = 0 // zero-speed straggler
				default:
					speeds[i] = 0.05 + rng.Float64()*4
					positive++
				}
			}
			if positive < k {
				// Not plannable by construction; the planner must say so.
				g := &GeneralS2C2{N: n, K: k, BlockRows: blockRows, Granularity: gran}
				if _, err := g.Plan(speeds); err == nil {
					t.Fatalf("trial %d: plan with %d positive speeds for k=%d should fail", trial, positive, k)
				}
				continue
			}
			check(t, n, k, blockRows, gran, speeds)
		}
	})
}

// delivered folds every assignment of p into a fresh round Ledger that
// needs coverage k, as a round in which every worker responds does: Cov is
// then each row's coverage by distinct workers, and Covered the
// decodability invariant the runtime waits on.
func delivered(p *Plan, k int) *Ledger {
	l := new(Ledger)
	l.Reset(len(p.Assignments), k, p.BlockRows)
	for w, ranges := range p.Assignments {
		l.Deliver(w, ranges, true)
	}
	return l
}

// totalRows sums the rows p assigns over all workers.
func totalRows(p *Plan) int {
	t := 0
	for w := range p.Assignments {
		t += p.RowsFor(w)
	}
	return t
}
