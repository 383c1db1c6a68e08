// Package sched implements the paper's workload-distribution strategies:
// the S2C2 algorithms (basic §4.1 and general §4.2/Algorithm 1), the
// conventional (n,k)-MDS plan they improve upon, and the configuration of
// the two uncoded baselines (3-replication with speculation, and
// Charm++-style over-decomposition) whose event-level simulation lives in
// internal/sim.
//
// A Plan assigns every worker a set of row ranges within its own coded
// partition. The central invariant — checked by Plan.Coverage and
// property-tested — is that every partition row index is covered by at
// least k distinct workers, which is exactly the decodability condition
// of the MDS (or polynomial) code.
package sched

import (
	"fmt"

	"github.com/coded-computing/s2c2/internal/coding"
)

// Plan is one round's work map: Assignments[w] lists the row ranges
// worker w must compute within its coded partition.
type Plan struct {
	BlockRows   int
	Assignments [][]coding.Range
}

// NumWorkers returns the worker count.
func (p *Plan) NumWorkers() int { return len(p.Assignments) }

// RowsFor returns how many rows worker w is assigned.
func (p *Plan) RowsFor(w int) int { return coding.TotalRows(p.Assignments[w]) }

// TotalRows sums assigned rows over all workers.
func (p *Plan) TotalRows() int {
	t := 0
	for w := range p.Assignments {
		t += p.RowsFor(w)
	}
	return t
}

// Coverage returns, for each partition row index, how many workers are
// assigned to compute it.
func (p *Plan) Coverage() []int {
	cov := make([]int, p.BlockRows)
	for _, ranges := range p.Assignments {
		for _, r := range ranges {
			for i := r.Lo; i < r.Hi; i++ {
				cov[i]++
			}
		}
	}
	return cov
}

// CoverageAtLeast reports whether every row index is covered by >= k
// workers (the decodability invariant).
func (p *Plan) CoverageAtLeast(k int) bool {
	for _, c := range p.Coverage() {
		if c < k {
			return false
		}
	}
	return true
}

// Strategy produces per-iteration work plans from predicted speeds.
type Strategy interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// NeedK is the per-row coverage required for decoding.
	NeedK() int
	// PlanInto builds the round's assignment from predicted worker speeds
	// (len == number of workers), reusing dst's storage where it can (dst
	// may be nil), and returns the plan to use.
	PlanInto(predictedSpeeds []float64, dst *Plan) (*Plan, error)
}

// ConventionalMDS is the prior-work baseline (Lee et al., ISIT'16): every
// worker computes its entire partition; the master uses the fastest k
// responses and discards the rest.
type ConventionalMDS struct {
	N, K      int
	BlockRows int
}

// Name implements Strategy.
func (c *ConventionalMDS) Name() string { return fmt.Sprintf("mds(%d,%d)", c.N, c.K) }

// NeedK implements Strategy.
func (c *ConventionalMDS) NeedK() int { return c.K }

// Plan assigns the full partition to every worker regardless of speed.
func (c *ConventionalMDS) Plan(speeds []float64) (*Plan, error) {
	return c.PlanInto(speeds, nil)
}

// PlanInto is Plan writing into dst, reusing its assignment storage (nil
// allocates a fresh plan).
func (c *ConventionalMDS) PlanInto(speeds []float64, dst *Plan) (*Plan, error) {
	if len(speeds) != c.N {
		return nil, fmt.Errorf("sched: got %d speeds for %d workers", len(speeds), c.N)
	}
	if dst == nil {
		dst = &Plan{}
	}
	dst.BlockRows = c.BlockRows
	if cap(dst.Assignments) < c.N {
		assignments := make([][]coding.Range, c.N)
		copy(assignments, dst.Assignments)
		dst.Assignments = assignments
	}
	dst.Assignments = dst.Assignments[:c.N]
	for w := 0; w < c.N; w++ {
		dst.Assignments[w] = append(dst.Assignments[w][:0], coding.Range{Lo: 0, Hi: c.BlockRows})
	}
	return dst, nil
}

// PlanBuffer double-buffers round plans: Next plans into the older of two
// reusable Plans, so the previous round's plan — which a master may still
// be reading while its round drains (late results, reassignment) — stays
// intact while the next one is built. With a built-in strategy the steady
// state allocates nothing.
//
// The zero value is ready to use. Not safe for concurrent Next calls.
type PlanBuffer struct {
	plans [2]*Plan
	cur   int
}

// Next builds the next round's plan from the predicted speeds, recycling
// the plan returned two calls ago.
func (b *PlanBuffer) Next(s Strategy, speeds []float64) (*Plan, error) {
	b.cur ^= 1
	p, err := s.PlanInto(speeds, b.plans[b.cur])
	if err != nil {
		return nil, err
	}
	b.plans[b.cur] = p
	return p, nil
}
