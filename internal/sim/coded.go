package sim

import (
	"fmt"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/trace"
)

// CodedCluster simulates an MDS-coded master/worker cluster executing
// iterative mat-vec rounds.
type CodedCluster struct {
	Enc      *coding.EncodedMatrix
	Strategy sched.Strategy
	// Forecaster predicts next-round speeds from observed history.
	// nil means an oracle that knows the true speeds (the paper's
	// "knowing the exact speeds" configuration).
	Forecaster predict.Forecaster
	Trace      *trace.Trace
	Comm       CommModel
	Timeout    TimeoutPolicy
	// Numeric controls whether workers really execute their kernels and
	// the master really decodes (true: end-to-end verification) or only
	// the timing model runs (false: fast latency sweeps).
	Numeric bool

	roundModel
	decodeWS *coding.DecodeWorkspace
	result   []float64
}

// RunIteration executes one coded round: plan from predicted speeds,
// simulate worker finish times from true trace speeds, apply the timeout/
// reassignment recovery, update the observed-speed history and decode (in
// Numeric mode; the product is nil otherwise). The accounting, the worker
// partials, the decode workspace and the product are all recycled: the
// next RunIteration overwrites them.
func (c *CodedCluster) RunIteration(iter int, x []float64) (*Accounting, []float64, error) {
	plan, err := c.plan(c.Strategy, c.Forecaster, c.Trace, iter)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: iteration %d: %w", iter, err)
	}
	cost := rowCost{macs: float64(c.Enc.Cols), bytes: 8}
	if err := c.simulate(iter, plan, c.Strategy.NeedK(), c.Enc.BlockRows, float64(8*len(x)), cost, c.Comm, c.Timeout); err != nil {
		return nil, nil, fmt.Errorf("sim: iteration %d: %w", iter, err)
	}
	if !c.Numeric {
		return &c.acc, nil, nil
	}
	partials := c.compute(c.Enc, x, plan, c.acc.Mispredicted)
	if c.decodeWS == nil {
		c.decodeWS = c.Enc.NewDecodeWorkspace()
	}
	c.result = kernel.Grow(c.result, c.Enc.OrigRows)
	dec, err := c.Enc.DecodeMatVecInto(c.result, partials, c.decodeWS)
	if err != nil {
		return nil, nil, fmt.Errorf("sim: iteration %d decode: %w", iter, err)
	}
	return &c.acc, dec, nil
}
