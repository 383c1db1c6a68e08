package sim

import (
	"fmt"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/trace"
	"github.com/coded-computing/s2c2/internal/workloads"
)

// StrategyFactory builds a strategy for a phase given that phase's
// partition size. It lets one job configuration drive phases whose
// matrices have different shapes (e.g. X and Xᵀ in gradient descent).
type StrategyFactory func(blockRows int) sched.Strategy

// MDSFactory returns a conventional-MDS strategy factory.
func MDSFactory(n, k int) StrategyFactory {
	return func(blockRows int) sched.Strategy {
		return &sched.ConventionalMDS{N: n, K: k, BlockRows: blockRows}
	}
}

// S2C2Factory returns a general-S2C2 strategy factory.
func S2C2Factory(n, k, granularity int) StrategyFactory {
	return func(blockRows int) sched.Strategy {
		return &sched.GeneralS2C2{N: n, K: k, BlockRows: blockRows, Granularity: granularity}
	}
}

// BasicS2C2Factory returns a basic-S2C2 strategy factory.
func BasicS2C2Factory(n, k, granularity int) StrategyFactory {
	return func(blockRows int) sched.Strategy {
		return &sched.BasicS2C2{N: n, K: k, BlockRows: blockRows, Granularity: granularity}
	}
}

// JobConfig configures an iterative coded job on the simulator.
type JobConfig struct {
	N, K       int
	Strategy   StrategyFactory
	Forecaster predict.Forecaster // nil = oracle speeds
	Trace      *trace.Trace
	Comm       CommModel
	Timeout    TimeoutPolicy
	// Numeric runs real encode/compute/decode every round. When false the
	// timing model runs but state updates use locally computed products.
	Numeric bool
	MaxIter int
	// Exec pins this job's encode parallelism to a pool and fan-out, so
	// co-tenant jobs in one process stop contending for the shared
	// GOMAXPROCS-sized default pool. The zero value uses the default.
	Exec kernel.Exec
}

// JobResult reports a finished iterative job.
type JobResult struct {
	State      []float64
	Iterations int
	Aggregate  *Aggregate
	// PerPhase holds one aggregate per workload phase.
	PerPhase []*Aggregate
}

// RunIterative executes the workload to convergence (or MaxIter) on a
// simulated coded cluster, one CodedCluster per phase, all driven by the
// same speed trace. The returned aggregate sums phase latencies per
// iteration — the paper's end-to-end computation latency.
func RunIterative(w workloads.Iterative, cfg JobConfig) (*JobResult, error) {
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 100
	}
	matrices := w.Matrices()
	clusters := make([]*CodedCluster, len(matrices))
	for p, m := range matrices {
		code, err := coding.NewMDSCode(cfg.N, cfg.K)
		if err != nil {
			return nil, err
		}
		code.SetExec(cfg.Exec)
		enc := code.Encode(m)
		clusters[p] = &CodedCluster{
			Enc:        enc,
			Strategy:   cfg.Strategy(enc.BlockRows),
			Forecaster: cfg.Forecaster,
			Trace:      cfg.Trace,
			Comm:       cfg.Comm,
			Timeout:    cfg.Timeout,
			Numeric:    cfg.Numeric,
		}
	}
	// Each phase's cluster owns its round buffers: results are consumed
	// within the iteration, so the clusters may recycle them.
	for _, cl := range clusters {
		cl.ReuseBuffers = true
	}
	res := &JobResult{Aggregate: &Aggregate{}, PerPhase: make([]*Aggregate, len(matrices))}
	for p := range res.PerPhase {
		res.PerPhase[p] = &Aggregate{}
	}
	state := w.Init()
	// Per-phase buffers reused across iterations: the phase outputs and
	// (in timing-only mode) the locally computed products.
	outputs := make([][]float64, len(matrices))
	local := make([][]float64, len(matrices))
	// iterSum sums an iteration's phases into the one round Aggregate sees.
	var iterSum Accounting
	for iter := 0; iter < cfg.MaxIter; iter++ {
		for p := range outputs {
			outputs[p] = nil
		}
		iterSum.reset(iter, cfg.Trace.NumWorkers())
		for p := range matrices {
			in := w.PhaseInput(p, state, outputs[:p])
			round, err := clusters[p].RunIteration(iter, in)
			if err != nil {
				return nil, fmt.Errorf("sim: %s phase %d: %w", w.Name(), p, err)
			}
			if cfg.Numeric {
				outputs[p] = round.Result
			} else {
				local[p] = kernel.Grow(local[p], matrices[p].Rows())
				mat.MatVecInto(matrices[p], in, local[p])
				outputs[p] = local[p]
			}
			iterSum.Latency += round.Latency
			for i := range round.ComputedRows {
				iterSum.ComputedRows[i] += round.ComputedRows[i]
				iterSum.UsedRows[i] += round.UsedRows[i]
			}
			iterSum.Mispredicted = iterSum.Mispredicted || round.Mispredicted
			iterSum.ReassignedRows += round.ReassignedRows
			iterSum.BytesMoved += round.BytesMoved
			res.PerPhase[p].Add(&round.Accounting)
		}
		res.Aggregate.Add(&iterSum)
		var done bool
		state, done = w.Update(state, outputs)
		res.Iterations = iter + 1
		if done {
			break
		}
	}
	// Workloads may hand back state in reusable internal buffers; the
	// result must outlive the job.
	res.State = mat.CloneVec(state)
	return res, nil
}
