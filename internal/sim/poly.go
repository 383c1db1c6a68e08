package sim

import (
	"fmt"
	"slices"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/trace"
)

// PolyCluster simulates polynomial-coded bilinear rounds (the §7.2.3
// Hessian workload) with or without S2C2 workload distribution. The
// recovery threshold is a·b instead of k, and a worker's per-row kernel is
// BlockColsB multiply-accumulate columns wide; otherwise the timing model
// matches CodedCluster.
type PolyCluster struct {
	Enc        *coding.EncodedBilinear
	Strategy   sched.Strategy
	Forecaster predict.Forecaster // nil = oracle
	Trace      *trace.Trace
	Comm       CommModel
	Timeout    TimeoutPolicy
	Numeric    bool
	// ReuseBuffers lets the cluster back the returned PolyRound with
	// per-cluster storage overwritten by the next RunIteration (see
	// CodedCluster).
	ReuseBuffers bool

	speeds speedSource

	// Per-round scratch recycled across iterations (see clusterScratch).
	predictBuf []float64
	actualBuf  []float64
	finishes   []workerFinish
	cov        []int
	used       []bool
	observed   []float64
	partialBuf []*coding.Partial
	partials   []*coding.Partial
	decodeWS   *coding.PolyDecodeWorkspace
	result     *mat.Dense
	planBuf    sched.PlanBuffer // double-buffered round plans
	recovery   recoveryScratch
	round      PolyRound
}

// PolyRound reports one bilinear iteration.
type PolyRound struct {
	Iter           int
	Latency        float64
	Result         *mat.Dense
	ComputedRows   []int
	UsedRows       []int
	ReassignedRows int
	Mispredicted   bool
	BytesMoved     float64
}

// RunIteration executes one Hessian round on the diagonal vector d.
//
// Every assigned row costs RowsM·BlockColsB multiply-accumulates — far
// more than a mat-vec row — so compute time is scaled by that row weight
// in multiply-accumulates (ElemRate units).
func (c *PolyCluster) RunIteration(iter int, d []float64) (*PolyRound, error) {
	n := c.Trace.NumWorkers()
	c.predictBuf = kernel.Grow(c.predictBuf, n)
	predicted := c.speeds.planInto(c.predictBuf, c.Forecaster, c.Trace, iter)
	plan, err := c.planBuf.Next(c.Strategy, predicted)
	if err != nil {
		return nil, fmt.Errorf("sim: poly iteration %d: %w", iter, err)
	}
	threshold := c.Strategy.NeedK()
	c.actualBuf = kernel.Grow(c.actualBuf, n)
	actual := c.actualBuf
	for w := 0; w < n; w++ {
		actual[w] = c.Trace.At(w, iter)
	}
	blockRows := c.Enc.BlockColsA
	round := &c.round
	if c.ReuseBuffers {
		*round = PolyRound{ComputedRows: round.ComputedRows, UsedRows: round.UsedRows}
	} else {
		round = &PolyRound{}
	}
	round.Iter = iter
	round.ComputedRows = growCounters(round.ComputedRows, n)
	round.UsedRows = growCounters(round.UsedRows, n)
	dBytes := float64(8 * len(d))
	broadcast := c.Comm.TransferTime(dBytes)
	round.BytesMoved += dBytes * float64(n)

	// Row weight: one output row of Ã_wᵀ·diag(d)·B̃_w costs
	// RowsM × BlockColsB multiply-accumulates.
	rowWeight := float64(c.Enc.RowsM * c.Enc.BlockColsB)

	finishes := c.finishes[:0]
	for w := 0; w < n; w++ {
		rows := plan.RowsFor(w)
		if rows == 0 {
			continue
		}
		round.ComputedRows[w] = rows
		ft := broadcast + computeElems(float64(rows)*rowWeight, actual[w]) + c.Comm.TransferTime(float64(8*rows*c.Enc.BlockColsB))
		finishes = append(finishes, workerFinish{w: w, finish: ft, rows: rows})
	}
	c.finishes = finishes
	if len(finishes) < threshold {
		return nil, fmt.Errorf("sim: poly plan uses %d workers, need %d", len(finishes), threshold)
	}
	slices.SortFunc(finishes, byFinish)

	cov := growCounters(c.cov, blockRows)
	c.cov = cov
	needed := blockRows
	coveredAt := -1.0
	usedUpTo := -1
	for i, f := range finishes {
		for _, rg := range plan.Assignments[f.w] {
			for r := rg.Lo; r < rg.Hi; r++ {
				cov[r]++
				if cov[r] == threshold {
					needed--
				}
			}
		}
		if needed == 0 {
			coveredAt = f.finish
			usedUpTo = i
			break
		}
	}
	// Deadline rule as in CodedCluster.simulateRound: first-threshold mean
	// plus the plan's expected makespan under predicted speeds.
	meanK := 0.0
	for i := 0; i < threshold; i++ {
		meanK += finishes[i].finish
	}
	meanK /= float64(threshold)
	deadline := meanK * (1 + c.Timeout.Fraction)
	planned := 0.0
	for w := 0; w < n; w++ {
		rows := plan.RowsFor(w)
		if rows == 0 {
			continue
		}
		pf := broadcast + computeElems(float64(rows)*rowWeight, predicted[w]) + c.Comm.TransferTime(float64(8*rows*c.Enc.BlockColsB))
		if pf > planned {
			planned = pf
		}
	}
	if d := planned * (1 + c.Timeout.Fraction); d > deadline {
		deadline = d
	}
	if deadline < finishes[threshold-1].finish {
		deadline = finishes[threshold-1].finish
	}

	usedWorkers := c.used
	if cap(usedWorkers) < n {
		usedWorkers = make([]bool, n)
	}
	usedWorkers = usedWorkers[:n]
	for i := range usedWorkers {
		usedWorkers[i] = false
	}
	c.used = usedWorkers
	if coveredAt >= 0 && coveredAt <= deadline {
		round.Latency = coveredAt
		for i := 0; i <= usedUpTo; i++ {
			usedWorkers[finishes[i].w] = true
			round.UsedRows[finishes[i].w] = finishes[i].rows
		}
	} else {
		round.Mispredicted = true
		for _, f := range finishes {
			if f.finish <= deadline {
				usedWorkers[f.w] = true
				round.UsedRows[f.w] = f.rows
			}
		}
		// Reassign deficient rows among finished workers.
		helpers, reassigned, err := c.recovery.reassign(plan, usedWorkers, cov, threshold, actual)
		if err != nil {
			return nil, fmt.Errorf("sim: poly iteration %d: %w", iter, err)
		}
		round.ReassignedRows = reassigned
		latest := deadline
		for _, h := range helpers {
			if h.extra == 0 {
				continue
			}
			round.ComputedRows[h.w] += h.extra
			round.UsedRows[h.w] += h.extra
			ft := deadline + c.Comm.TransferTime(64) + computeElems(float64(h.extra)*rowWeight, actual[h.w]) + c.Comm.TransferTime(float64(8*h.extra*c.Enc.BlockColsB))
			if ft > latest {
				latest = ft
			}
		}
		round.Latency = latest
	}

	for _, used := range round.UsedRows {
		round.BytesMoved += float64(8 * used * c.Enc.BlockColsB)
	}

	// Observed speeds for the forecaster.
	c.observed = kernel.GrowZeroed(c.observed, n)
	observed := c.observed
	for _, f := range finishes {
		ct := f.finish - broadcast
		if ct <= 0 {
			ct = 1e-9
		}
		observed[f.w] = float64(f.rows) * rowWeight / ct / ElemRate
	}
	c.speeds.observe(observed)

	if c.Numeric {
		if c.partialBuf == nil {
			c.partialBuf = make([]*coding.Partial, n)
		}
		partials := c.partials[:0]
		for w := 0; w < n; w++ {
			if usedWorkers[w] && plan.RowsFor(w) > 0 {
				c.partialBuf[w] = c.Enc.WorkerComputeInto(w, d, plan.Assignments[w], c.partialBuf[w])
				partials = append(partials, c.partialBuf[w])
			}
		}
		if round.Mispredicted {
			partials = c.recovery.compute(c.Enc, d, partials)
		}
		c.partials = partials
		if c.decodeWS == nil {
			c.decodeWS = c.Enc.NewDecodeWorkspace()
		}
		if c.result == nil {
			c.result = mat.New(c.Enc.ColsA, c.Enc.ColsB)
		}
		dec, err := c.Enc.DecodeInto(c.result, partials, c.decodeWS)
		if err != nil {
			return nil, fmt.Errorf("sim: poly iteration %d decode: %w", iter, err)
		}
		if !c.ReuseBuffers {
			dec = dec.Clone()
		}
		round.Result = dec
	}
	return round, nil
}
