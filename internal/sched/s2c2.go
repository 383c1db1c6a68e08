package sched

import (
	"fmt"
	"math"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/kernel"
)

// GeneralS2C2 implements Algorithm 1. Each partition is over-decomposed
// into Granularity chunks; k×Granularity chunk-computations are allocated
// to workers proportionally to predicted speed (capped at one full
// partition each) and laid out as contiguous cyclic intervals, so every
// chunk index is covered exactly k times.
type GeneralS2C2 struct {
	N, K      int
	BlockRows int
	// Granularity is the over-decomposition factor (chunks per partition).
	// Higher values track speed differences more precisely at slightly
	// higher planning cost. 0 selects a default of 4×N.
	Granularity int

	// Planning scratch recycled across rounds; PlanInto on one strategy
	// value is therefore not safe for concurrent use.
	alloc, order []int
}

// Name implements Strategy.
func (g *GeneralS2C2) Name() string { return fmt.Sprintf("s2c2(%d,%d)", g.N, g.K) }

// NeedK implements Strategy.
func (g *GeneralS2C2) NeedK() int { return g.K }

func (g *GeneralS2C2) granularity() int {
	m := g.Granularity
	if m <= 0 {
		m = 4 * g.N
	}
	// More chunks than rows only adds quantization noise: cap at the
	// partition size so one chunk is never less than one row.
	if g.BlockRows > 0 && m > g.BlockRows {
		m = g.BlockRows
	}
	if m < 1 {
		m = 1
	}
	return m
}

// Plan implements Algorithm 1 of the paper.
func (g *GeneralS2C2) Plan(speeds []float64) (*Plan, error) {
	return g.PlanInto(speeds, nil)
}

// PlanInto is Plan writing into dst, reusing its assignment storage (nil
// allocates a fresh plan). A warm (strategy, plan) pair plans steady-state
// rounds without allocation; pair it with a PlanBuffer so the previous
// round's plan stays readable while the next one is built.
func (g *GeneralS2C2) PlanInto(speeds []float64, dst *Plan) (*Plan, error) {
	if len(speeds) != g.N {
		return nil, fmt.Errorf("sched: got %d speeds for %d workers", len(speeds), g.N)
	}
	if g.K < 1 || g.K > g.N {
		return nil, fmt.Errorf("sched: invalid (n,k)=(%d,%d)", g.N, g.K)
	}
	m := g.granularity()
	g.alloc = kernel.GrowInts(g.alloc, g.N)
	if err := allocateChunksInto(g.alloc, speeds, g.K, m); err != nil {
		return nil, err
	}
	// Lay out contiguous cyclic chunk intervals in descending-speed order
	// (the order allocateChunksInto used), so coverage is exactly k per
	// chunk.
	g.order = appendSpeedOrder(g.order[:0], speeds)
	if dst == nil {
		dst = &Plan{}
	}
	dst.BlockRows = g.BlockRows
	if cap(dst.Assignments) < g.N {
		assignments := make([][]coding.Range, g.N)
		copy(assignments, dst.Assignments)
		dst.Assignments = assignments
	}
	dst.Assignments = dst.Assignments[:g.N]
	begin := 0
	for _, w := range g.order {
		a := g.alloc[w]
		if a == 0 {
			dst.Assignments[w] = dst.Assignments[w][:0]
			continue
		}
		dst.Assignments[w] = appendChunkRows(dst.Assignments[w][:0], begin, begin+a, g.BlockRows, m)
		begin = (begin + a) % m
	}
	return dst, nil
}

// AllocateChunks distributes k×m chunk-computations over the workers
// proportionally to their speeds, each worker capped at m (its whole
// partition). It errors when fewer than k workers have positive speed,
// since coverage k would then be impossible.
//
// Rounding matters: naively rounding a slow worker's share *up* by one
// chunk can dominate the round's makespan (one extra chunk at speed 0.14
// costs 7× what it costs at speed 1). So quotas are floored and the
// leftover chunks are placed greedily on whichever worker's marginal
// completion time (alloc+1)/speed stays smallest — an LPT-style rule
// that keeps the realised makespan within one chunk of the fractional
// optimum.
func AllocateChunks(speeds []float64, k, m int) ([]int, error) {
	alloc := make([]int, len(speeds))
	if err := allocateChunksInto(alloc, speeds, k, m); err != nil {
		return nil, err
	}
	return alloc, nil
}

// allocateChunksInto is AllocateChunks writing into caller scratch of
// length len(speeds).
func allocateChunksInto(alloc []int, speeds []float64, k, m int) error {
	positive := 0
	total := 0.0
	for _, s := range speeds {
		if s < 0 || math.IsNaN(s) || math.IsInf(s, 0) {
			return fmt.Errorf("sched: invalid speed %v", s)
		}
		if s > 0 {
			positive++
			total += s
		}
	}
	if positive < k {
		return fmt.Errorf("sched: only %d workers with positive speed, need >= %d", positive, k)
	}
	want := k * m
	placed := 0
	for w, s := range speeds {
		alloc[w] = 0
		if s <= 0 {
			continue
		}
		q := int(float64(want) * s / total) // floor of the exact quota
		if q > m {
			q = m
		}
		alloc[w] = q
		placed += q
	}
	// Place the remainder one chunk at a time on the worker with the
	// smallest resulting completion time that still has capacity.
	for placed < want {
		best := -1
		bestTime := 0.0
		for w, s := range speeds {
			if s <= 0 || alloc[w] >= m {
				continue
			}
			t := float64(alloc[w]+1) / s
			if best < 0 || t < bestTime {
				best, bestTime = w, t
			}
		}
		if best < 0 {
			return fmt.Errorf("sched: cannot place %d of %d chunk-computations", want-placed, want)
		}
		alloc[best]++
		placed++
	}
	return nil
}

// speedOrder returns worker indices sorted by descending speed (stable on
// ties by index, keeping plans deterministic).
func speedOrder(speeds []float64) []int {
	return appendSpeedOrder(make([]int, 0, len(speeds)), speeds)
}

// appendSpeedOrder is speedOrder appending onto dst (which must be
// empty), reusing its storage. Insertion sort with a strict comparison
// keeps ties in index order and avoids sort.SliceStable's closure
// allocation.
func appendSpeedOrder(dst []int, speeds []float64) []int {
	for i := range speeds {
		dst = append(dst, i)
	}
	for i := 1; i < len(dst); i++ {
		for j := i; j > 0 && speeds[dst[j]] > speeds[dst[j-1]]; j-- {
			dst[j], dst[j-1] = dst[j-1], dst[j]
		}
	}
	return dst
}

// appendChunkRows converts the cyclic chunk interval [begin, end) (end may
// exceed m, wrapping around) to normalized row ranges appended onto dst
// (which must be empty), using uniform banding: chunk c spans rows
// [c·rows/m, (c+1)·rows/m).
func appendChunkRows(dst []coding.Range, begin, end, blockRows, m int) []coding.Range {
	if end <= m {
		lo, hi := begin*blockRows/m, end*blockRows/m
		if hi > lo {
			dst = append(dst, coding.Range{Lo: lo, Hi: hi})
		}
		return dst
	}
	// Wrapped: chunks [begin, m) and [0, end-m). Row order is ascending —
	// the wrapped prefix first — and the two ranges merge when banding
	// makes them touch (notably a full-partition assignment).
	headHi := (end - m) * blockRows / m
	tailLo := begin * blockRows / m
	if headHi >= tailLo {
		dst = append(dst, coding.Range{Lo: 0, Hi: blockRows})
		return dst
	}
	if headHi > 0 {
		dst = append(dst, coding.Range{Lo: 0, Hi: headHi})
	}
	if blockRows > tailLo {
		dst = append(dst, coding.Range{Lo: tailLo, Hi: blockRows})
	}
	return dst
}

// BasicS2C2 is the §4.1 special case: every node is classified as either
// a straggler (assigned nothing) or a full-speed worker (assigned an equal
// share), ignoring fine-grained speed differences. A node is a straggler
// when its predicted speed falls below the fastest node's speed divided by
// StragglerFactor (the paper's controlled-cluster definition uses 5×).
type BasicS2C2 struct {
	N, K        int
	BlockRows   int
	Granularity int
	// StragglerFactor is the slowdown ratio that classifies stragglers;
	// 0 selects the paper's 5.
	StragglerFactor float64

	// Planning scratch recycled across rounds (see GeneralS2C2).
	binary []float64
	inner  *GeneralS2C2
}

// Name implements Strategy.
func (b *BasicS2C2) Name() string { return fmt.Sprintf("s2c2-basic(%d,%d)", b.N, b.K) }

// NeedK implements Strategy.
func (b *BasicS2C2) NeedK() int { return b.K }

// Plan classifies stragglers, then delegates to the general algorithm
// with binary speeds.
func (b *BasicS2C2) Plan(speeds []float64) (*Plan, error) {
	return b.PlanInto(speeds, nil)
}

// PlanInto is Plan writing into dst, reusing its assignment storage (nil
// allocates a fresh plan).
func (b *BasicS2C2) PlanInto(speeds []float64, dst *Plan) (*Plan, error) {
	if len(speeds) != b.N {
		return nil, fmt.Errorf("sched: got %d speeds for %d workers", len(speeds), b.N)
	}
	factor := b.StragglerFactor
	if factor <= 0 {
		factor = 5
	}
	max := 0.0
	for _, s := range speeds {
		if s > max {
			max = s
		}
	}
	b.binary = kernel.Grow(b.binary, b.N)
	binary := b.binary
	live := 0
	for i, s := range speeds {
		binary[i] = 0
		if s > 0 && s >= max/factor {
			binary[i] = 1
			live++
		}
	}
	// If classification leaves fewer than k live nodes, fall back to
	// counting the k fastest as live (coded computing still needs k).
	if live < b.K {
		for _, w := range speedOrder(speeds) {
			if binary[w] == 0 && speeds[w] > 0 {
				binary[w] = 1
				live++
				if live == b.K {
					break
				}
			}
		}
	}
	if b.inner == nil {
		b.inner = &GeneralS2C2{}
	}
	b.inner.N, b.inner.K, b.inner.BlockRows, b.inner.Granularity = b.N, b.K, b.BlockRows, b.Granularity
	return b.inner.PlanInto(binary, dst)
}
