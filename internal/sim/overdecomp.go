package sim

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/trace"
)

// OverDecomposition simulates the Charm++-inspired baseline of §7.2: the
// data is split into Factor×n partitions (4× over-decomposition), each
// worker starts with Factor of them, ReplicationFactor (1.42, matching a
// (10,7) code's redundancy) of the data is pre-replicated round-robin,
// and every round the master rebalances partitions to match predicted
// speeds — paying a transfer cost whenever the receiving worker does not
// already hold a copy.
type OverDecomposition struct {
	A          *mat.Dense
	Trace      *trace.Trace
	Comm       CommModel
	Forecaster predict.Forecaster // nil = oracle speeds
	// Factor is the over-decomposition multiple (paper: 4).
	Factor int
	// ReplicationFactor is total stored data / original data (paper: 1.42).
	ReplicationFactor float64
	// Numeric enables real computation.
	Numeric bool

	nParts    int
	rowsPer   int
	partBytes float64
	holds     []bool     // holds[w*nParts+p]: worker w stores partition p
	stored    []int      // stored[w] = partitions worker w stores
	assigned  [][]int    // assigned[w] = partitions worker w computes
	padded    *mat.Dense // A padded to nParts partitions, on the first Numeric round
	speeds    speedSource

	// Per-round scratch: the next RunIteration overwrites it, the
	// accounting and product included.
	acc                                   Accounting
	actual, predicted, observed, moveCost []float64
	target, pool                          []int
	remainders                            []remainder
	product                               []float64
}

// Name identifies the baseline in experiment output.
func (o *OverDecomposition) Name() string { return "over-decomposition" }

func (o *OverDecomposition) factor() int {
	if o.Factor <= 0 {
		return 4
	}
	return o.Factor
}

func (o *OverDecomposition) init() {
	if o.holds != nil {
		return
	}
	n := o.Trace.NumWorkers()
	f := o.factor()
	o.nParts = n * f
	o.rowsPer = mat.PaddedRows(o.A.Rows(), o.nParts) / o.nParts
	o.partBytes = float64(8 * o.rowsPer * o.A.Cols())
	o.holds = make([]bool, n*o.nParts)
	o.stored = make([]int, n)
	// Full-capacity assignment lists and pool: rebalancing never grows them.
	o.assigned = make([][]int, n)
	for w := range o.assigned {
		o.assigned[w] = make([]int, 0, o.nParts)
	}
	o.pool = make([]int, 0, o.nParts)
	o.target, o.remainders = make([]int, n), make([]remainder, n)
	for p := 0; p < o.nParts; p++ {
		w := p / f
		o.hold(w, p)
		o.assigned[w] = append(o.assigned[w], p)
	}
	// Pre-replicate (ReplicationFactor−1) of the partitions round-robin on
	// the next worker over.
	rf := o.ReplicationFactor
	if rf <= 1 {
		rf = 1.42
	}
	extra := int(float64(o.nParts) * (rf - 1))
	for i := 0; i < extra; i++ {
		p := i % o.nParts
		w := (p/f + 1 + i/o.nParts) % n
		o.hold(w, p)
	}
}

// hold records that worker w stores partition p.
func (o *OverDecomposition) hold(w, p int) {
	if !o.holds[w*o.nParts+p] {
		o.holds[w*o.nParts+p] = true
		o.stored[w]++
	}
}

// RunIteration rebalances to predicted speeds, pays migration costs (the
// round's DataMoves), and runs the round at true speeds. The product is nil
// unless Numeric. Each partition is computed once, by the worker it is
// assigned to, so every computed row is used.
func (o *OverDecomposition) RunIteration(iter int, x []float64) (*Accounting, []float64, error) {
	o.init()
	n := o.Trace.NumWorkers()
	o.actual = kernel.Grow(o.actual, n)
	actual := o.actual
	for w := 0; w < n; w++ {
		actual[w] = o.Trace.At(w, iter)
	}
	o.predicted = kernel.Grow(o.predicted, n)
	predicted := o.speeds.planInto(o.predicted, o.Forecaster, o.Trace, iter)

	round := &o.acc
	round.reset(iter, n)
	xBytes := float64(8 * len(x))
	round.BytesMoved += xBytes * float64(n)

	// Target partition counts proportional to predicted speed (largest
	// remainder keeps the total exact).
	target := proportionalCounts(o.target, o.remainders, predicted, o.nParts)

	// Rebalance: strip surplus partitions, hand them to deficit workers.
	pool := o.pool[:0]
	for w := 0; w < n; w++ {
		for len(o.assigned[w]) > target[w] {
			last := o.assigned[w][len(o.assigned[w])-1]
			o.assigned[w] = o.assigned[w][:len(o.assigned[w])-1]
			pool = append(pool, last)
		}
	}
	o.moveCost = kernel.GrowZeroed(o.moveCost, n)
	moveCost := o.moveCost
	for w := 0; w < n && len(pool) > 0; w++ {
		for len(o.assigned[w]) < target[w] && len(pool) > 0 {
			// Prefer a pooled partition this worker already holds.
			pick := -1
			for i, p := range pool {
				if o.holds[w*o.nParts+p] {
					pick = i
					break
				}
			}
			if pick < 0 {
				pick = len(pool) - 1
				p := pool[pick]
				moveCost[w] += o.Comm.TransferTime(o.partBytes)
				round.BytesMoved += o.partBytes
				round.DataMoves++
				o.hold(w, p)
			}
			p := pool[pick]
			pool = append(pool[:pick], pool[pick+1:]...)
			o.assigned[w] = append(o.assigned[w], p)
		}
	}
	if len(pool) > 0 {
		return nil, nil, fmt.Errorf("sim: over-decomposition left %d partitions unplaced", len(pool))
	}

	// Execute at true speeds; migrations are on the critical path (§7.2.2).
	broadcast := o.Comm.TransferTime(xBytes)
	o.observed = kernel.GrowZeroed(o.observed, n) // 0: idle, not observed
	latest := 0.0
	for w := 0; w < n; w++ {
		rows := len(o.assigned[w]) * o.rowsPer
		if rows == 0 {
			continue
		}
		ft := broadcast + moveCost[w] + computeElems(float64(rows*o.A.Cols()), actual[w]) + o.Comm.TransferTime(float64(8*rows))
		if ft > latest {
			latest = ft
		}
		round.BytesMoved += float64(8 * rows)
		round.ComputedRows[w] = rows
		round.UsedRows[w] = rows
		// Observed speed for the forecaster.
		o.observed[w] = 1
		if compute := ft - broadcast - moveCost[w]; compute > 0 {
			o.observed[w] = float64(rows*o.A.Cols()) / compute / ElemRate
		}
	}
	round.Latency = latest
	o.speeds.observe(o.observed)

	if !o.Numeric {
		return round, nil, nil
	}
	if o.padded == nil {
		o.padded = mat.PadRows(o.A, o.nParts)
	}
	o.product = kernel.Grow(o.product, o.padded.Rows())
	for w := 0; w < n; w++ {
		for _, p := range o.assigned[w] {
			lo, hi := p*o.rowsPer, (p+1)*o.rowsPer
			mat.MatVecRowsInto(o.padded, x, o.product[lo:hi], lo, hi)
		}
	}
	return round, o.product[:o.A.Rows()], nil
}

// StorageFractions returns, per worker, the fraction of the full data
// currently stored (partitions held ÷ total partitions) — the Figure 3
// metric.
func (o *OverDecomposition) StorageFractions() []float64 {
	o.init()
	out := make([]float64, len(o.stored))
	for w, c := range o.stored {
		out[w] = float64(c) / float64(o.nParts)
	}
	return out
}

// remainder is one weight's fractional share in proportionalCounts.
type remainder struct {
	i int
	f float64
}

// proportionalCounts apportions total items to weights by largest
// remainder, guaranteeing the counts sum to total. It writes the counts
// into counts and uses fr as scratch; both have len(weights) entries.
func proportionalCounts(counts []int, fr []remainder, weights []float64, total int) []int {
	n := len(weights)
	sum := 0.0
	for _, w := range weights {
		if w > 0 {
			sum += w
		}
	}
	clear(counts)
	if sum == 0 {
		for i := 0; total > 0; i = (i + 1) % n {
			counts[i]++
			total--
		}
		return counts
	}
	used := 0
	for i, w := range weights {
		if w < 0 {
			w = 0
		}
		exact := float64(total) * w / sum
		counts[i] = int(exact)
		used += counts[i]
		fr[i] = remainder{i, exact - float64(counts[i])}
	}
	slices.SortFunc(fr, func(a, b remainder) int { return cmp.Compare(b.f, a.f) })
	for i := 0; used < total; i = (i + 1) % n {
		counts[fr[i].i]++
		used++
	}
	return counts
}
