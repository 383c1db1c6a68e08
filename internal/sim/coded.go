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
	// ReuseBuffers lets the cluster return a Round — the struct, its
	// per-worker slices and Result — backed by per-cluster storage that the
	// NEXT RunIteration overwrites. Drivers that consume each round before
	// requesting the next (sim.RunIterative, benchmarks) set it so a
	// steady-state round allocates nothing; leave it false if rounds must
	// outlive the following iteration.
	ReuseBuffers bool

	roundModel
	decodeWS *coding.DecodeWorkspace
	result   []float64
	round    Round // the Round handed back under ReuseBuffers
}

// Round captures one mat-vec iteration's outcome and accounting.
type Round struct {
	Accounting
	// Result is the decoded product (Numeric mode) or nil.
	Result []float64
}

// RunIteration executes one coded round: plan from predicted speeds,
// simulate worker finish times from true trace speeds, apply the timeout/
// reassignment recovery, update the observed-speed history and decode (in
// Numeric mode). The worker partials, the decode workspace and the result
// vector are all recycled across rounds.
func (c *CodedCluster) RunIteration(iter int, x []float64) (*Round, error) {
	plan, err := c.plan(c.Strategy, c.Forecaster, c.Trace, iter)
	if err != nil {
		return nil, fmt.Errorf("sim: iteration %d: %w", iter, err)
	}
	round := &c.round
	if c.ReuseBuffers {
		round.Result = nil
	} else {
		round = &Round{}
	}
	round.reset(iter, len(c.actual))
	cost := rowCost{macs: float64(c.Enc.Cols), bytes: 8}
	if err := c.simulate(&round.Accounting, plan, c.Strategy.NeedK(), c.Enc.BlockRows, float64(8*len(x)), cost, c.Comm, c.Timeout); err != nil {
		return nil, fmt.Errorf("sim: iteration %d: %w", iter, err)
	}
	if !c.Numeric {
		return round, nil
	}
	partials := c.compute(c.Enc, x, plan, round.Mispredicted)
	if c.decodeWS == nil {
		c.decodeWS = c.Enc.NewDecodeWorkspace()
	}
	c.result = kernel.Grow(c.result, c.Enc.OrigRows)
	dec, err := c.Enc.DecodeMatVecInto(c.result, partials, c.decodeWS)
	if err != nil {
		return nil, fmt.Errorf("sim: iteration %d decode: %w", iter, err)
	}
	if !c.ReuseBuffers {
		dec = append([]float64(nil), dec...)
	}
	round.Result = dec
	return round, nil
}
