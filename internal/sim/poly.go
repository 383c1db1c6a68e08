package sim

import (
	"fmt"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/trace"
)

// PolyCluster simulates polynomial-coded bilinear rounds (the §7.2.3
// Hessian workload) with or without S2C2 workload distribution. It runs
// CodedCluster's timing model with the recovery threshold a·b for k and a
// bilinear row's cost: BlockColsB values wide, RowsM × BlockColsB
// multiply-accumulates.
type PolyCluster struct {
	Enc        *coding.EncodedBilinear
	Strategy   sched.Strategy
	Forecaster predict.Forecaster // nil = oracle
	Trace      *trace.Trace
	Comm       CommModel
	Timeout    TimeoutPolicy
	Numeric    bool

	roundModel
	decodeWS *coding.PolyDecodeWorkspace
	result   *mat.Dense
}

// RunIteration executes one Hessian round on the diagonal vector d. Like
// CodedCluster's, its accounting and product (nil unless Numeric) are
// recycled by the next RunIteration.
func (c *PolyCluster) RunIteration(iter int, d []float64) (*Accounting, *mat.Dense, error) {
	plan, err := c.plan(c.Strategy, c.Forecaster, c.Trace, iter)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: poly iteration %d: %w", iter, err)
	}
	// One output row of Ã_wᵀ·diag(d)·B̃_w.
	cost := rowCost{macs: float64(c.Enc.RowsM * c.Enc.BlockColsB), bytes: float64(8 * c.Enc.BlockColsB)}
	if err := c.simulate(iter, plan, c.Strategy.NeedK(), c.Enc.BlockColsA, float64(8*len(d)), cost, c.Comm, c.Timeout); err != nil {
		return nil, nil, fmt.Errorf("sim: poly iteration %d: %w", iter, err)
	}
	if !c.Numeric {
		return &c.acc, nil, nil
	}
	partials := c.compute(c.Enc, d, plan, c.acc.Mispredicted)
	if c.decodeWS == nil {
		c.decodeWS = c.Enc.NewDecodeWorkspace()
	}
	if c.result == nil {
		c.result = mat.New(c.Enc.ColsA, c.Enc.ColsB)
	}
	dec, err := c.Enc.DecodeInto(c.result, partials, c.decodeWS)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: poly iteration %d decode: %w", iter, err)
	}
	return &c.acc, dec, nil
}
