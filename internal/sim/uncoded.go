package sim

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/trace"
)

// UncodedReplication simulates the enhanced Hadoop/LATE-style baseline of
// §7.1: the data matrix is split into n partitions, each replicated on
// Replication (3) randomly chosen workers; a round launches every task on
// its primary holder, then — reactively, once SpeculateAfter of the tasks
// have finished — launches up to MaxSpeculative speculative copies of the
// stragglers on idle workers, moving the partition when no idle worker
// holds a replica.
type UncodedReplication struct {
	A     *mat.Dense
	Trace *trace.Trace
	Comm  CommModel
	// Replication is the data replication factor (paper: 3).
	Replication int
	// MaxSpeculative caps speculative task launches per round (paper: 6).
	MaxSpeculative int
	// SpeculateAfter is the completed-task fraction that triggers
	// speculation (LATE waits for most tasks before reacting).
	SpeculateAfter float64
	// Numeric enables real computation of the product.
	Numeric bool

	replicas  [][]int // replicas[p] = workers holding partition p
	rowsPer   int
	partBytes float64
	padded    *mat.Dense // A padded to n partitions, on the first Numeric round

	// Per-round scratch: the next RunIteration overwrites it, the
	// accounting and product included.
	acc                               Accounting
	speeds, finish, sorted, available []float64
	finisher                          []int // finisher[p] = worker whose copy of task p finished first
	lagging                           []lagTask
	product                           []float64
}

// lagTask is a task still running when speculation triggers.
type lagTask struct {
	p  int
	ft float64
}

// Name identifies the baseline in experiment output.
func (u *UncodedReplication) Name() string {
	return fmt.Sprintf("uncoded-%drep", u.replicationFactor())
}

func (u *UncodedReplication) replicationFactor() int {
	if u.Replication <= 0 {
		return 3
	}
	return u.Replication
}

func (u *UncodedReplication) init() {
	if u.replicas != nil {
		return
	}
	n := u.Trace.NumWorkers()
	rep := u.replicationFactor()
	u.rowsPer = mat.PaddedRows(u.A.Rows(), n) / n
	u.partBytes = float64(8 * u.rowsPer * u.A.Cols())
	u.replicas = make([][]int, n)
	u.speeds, u.finish, u.sorted, u.available = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	u.finisher, u.lagging = make([]int, n), make([]lagTask, 0, n)
	for p := 0; p < n; p++ {
		// Deterministic round-robin placement: primary p plus the next
		// rep-1 workers. (The paper says "randomly selected"; round-robin
		// is the same placement law with a fixed seed and keeps runs
		// reproducible.)
		for r := 0; r < rep; r++ {
			u.replicas[p] = append(u.replicas[p], (p+r)%n)
		}
	}
}

// RunIteration simulates one round at the given trace step. The product is
// nil unless Numeric. Every worker computes its primary task and any
// speculative copies it was given; the copy of each task that finished
// first is the one used.
func (u *UncodedReplication) RunIteration(iter int, x []float64) (*Accounting, []float64, error) {
	u.init()
	n := u.Trace.NumWorkers()
	speeds, finish := u.speeds, u.finish // finish[p] = task p completion
	for w := 0; w < n; w++ {
		speeds[w] = u.Trace.At(w, iter)
	}
	round := &u.acc
	round.reset(iter, n)
	xBytes := float64(8 * len(x))
	broadcast := u.Comm.TransferTime(xBytes)
	round.BytesMoved += xBytes * float64(n)

	// Primary executions: task p on worker p.
	for p := 0; p < n; p++ {
		finish[p] = broadcast + computeElems(float64(u.rowsPer*u.A.Cols()), speeds[p]) + u.Comm.TransferTime(float64(8*u.rowsPer))
		u.finisher[p] = p
		round.ComputedRows[p] += u.rowsPer
	}
	// Speculation trigger time: when SpeculateAfter of tasks have finished.
	frac := u.SpeculateAfter
	if frac <= 0 || frac >= 1 {
		frac = 0.75
	}
	copy(u.sorted, finish)
	slices.Sort(u.sorted)
	trigIdx := int(frac * float64(n))
	if trigIdx >= n {
		trigIdx = n - 1
	}
	trigger := u.sorted[trigIdx]

	// Straggling tasks (unfinished at trigger), slowest first.
	lagging := u.lagging[:0]
	for p := 0; p < n; p++ {
		if finish[p] > trigger {
			lagging = append(lagging, lagTask{p, finish[p]})
		}
	}
	slices.SortFunc(lagging, func(a, b lagTask) int { return cmp.Compare(b.ft, a.ft) })
	maxSpec := u.MaxSpeculative
	if maxSpec <= 0 {
		maxSpec = 6
	}
	if len(lagging) > maxSpec {
		lagging = lagging[:maxSpec]
	}

	// Idle workers at trigger: those whose primary task has finished.
	// available[w] = time worker w can start speculative work, -1 while
	// its own task runs. Every idle worker starts at trigger, so ties are
	// common: scanning in id order gives them to the lowest id, and a trace
	// always simulates the same way.
	available := u.available
	for w := range available {
		available[w] = -1
		if finish[w] <= trigger {
			available[w] = trigger
		}
	}
	for _, l := range lagging {
		// Prefer an idle replica holder; fall back to moving the data to
		// the earliest-available idle worker.
		bestW, bestStart, needMove := -1, 0.0, false
		for _, w := range u.replicas[l.p] {
			if w == l.p {
				continue
			}
			if at := available[w]; at >= 0 && (bestW < 0 || at < bestStart) {
				bestW, bestStart = w, at
			}
		}
		if bestW < 0 {
			for w, at := range available {
				if at >= 0 && (bestW < 0 || at < bestStart) {
					bestW, bestStart, needMove = w, at, true
				}
			}
		}
		if bestW < 0 {
			continue // nobody idle: speculation impossible this round
		}
		start := bestStart + u.Comm.TransferTime(64) // task dispatch
		if needMove {
			start += u.Comm.TransferTime(u.partBytes)
			round.BytesMoved += u.partBytes
			round.DataMoves++
		}
		specFinish := start + computeElems(float64(u.rowsPer*u.A.Cols()), speeds[bestW]) + u.Comm.TransferTime(float64(8*u.rowsPer))
		round.Speculative++
		round.ComputedRows[bestW] += u.rowsPer
		available[bestW] = specFinish
		if specFinish < finish[l.p] {
			finish[l.p] = specFinish
			u.finisher[l.p] = bestW
		}
	}

	latest := 0.0
	for p, ft := range finish {
		if ft > latest {
			latest = ft
		}
		round.UsedRows[u.finisher[p]] += u.rowsPer
	}
	round.Latency = latest
	round.BytesMoved += float64(8 * u.rowsPer * n)

	if !u.Numeric {
		return round, nil, nil
	}
	if u.padded == nil {
		u.padded = mat.PadRows(u.A, n)
	}
	u.product = kernel.Grow(u.product, u.padded.Rows())
	for p := 0; p < n; p++ {
		lo, hi := p*u.rowsPer, (p+1)*u.rowsPer
		mat.MatVecRowsInto(u.padded, x, u.product[lo:hi], lo, hi)
	}
	return round, u.product[:u.A.Rows()], nil
}
