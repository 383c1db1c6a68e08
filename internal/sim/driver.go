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

// Cluster is one phase of a simulated job: CodedCluster,
// UncodedReplication, OverDecomposition, or a scheme built from them.
type Cluster interface {
	// RunIteration runs round iter on input x and returns its accounting
	// and the product, which is nil when the round is timing-only. Both
	// may live in storage that the next RunIteration overwrites.
	RunIteration(iter int, x []float64) (*Accounting, []float64, error)
}

// RunIterative executes the workload to convergence (or MaxIter) on a
// simulated coded cluster, one CodedCluster per phase, all driven by the
// same speed trace.
//
// A Numeric job's phase encodings come from a process-wide idle list of
// encodings that earlier jobs released, keyed by (n, k, rows, cols): a
// job at a shape seen before re-encodes into that storage instead of
// allocating, zeroing and faulting in fresh parity, with bit-identical
// results. The job returns its encodings when it ends, error or not; the
// list keeps at most maxRecycledBytes (4 MiB) of them. A timing-only job
// reads only an encoding's shape, so it encodes nothing and leaves the
// list alone.
func RunIterative(w workloads.Iterative, cfg JobConfig) (*JobResult, error) {
	matrices := w.Matrices()
	phases := make([]Cluster, len(matrices))
	for p, m := range matrices {
		var enc *coding.EncodedMatrix
		if cfg.Numeric {
			e, err := takeEncoding(cfg.N, cfg.K, m, cfg.Exec)
			if err != nil {
				return nil, err
			}
			defer e.release()
			enc = e.enc
		} else {
			var err error
			if enc, err = encodingShape(cfg.N, cfg.K, m); err != nil {
				return nil, err
			}
		}
		phases[p] = &CodedCluster{
			Enc:        enc,
			Strategy:   cfg.Strategy(enc.BlockRows),
			Forecaster: cfg.Forecaster,
			Trace:      cfg.Trace,
			Comm:       cfg.Comm,
			Timeout:    cfg.Timeout,
			Numeric:    cfg.Numeric,
		}
	}
	return Drive(w, phases, cfg.MaxIter)
}

// Drive executes the workload to convergence (or maxIter rounds, 100 when
// maxIter ≤ 0) with phase p's rounds on phases[p]; every phase runs on the
// same workers. A timing-only round's product is computed locally, so the
// workload's state advances either way. The returned aggregate sums phase
// latencies per iteration — the paper's end-to-end computation latency.
func Drive(w workloads.Iterative, phases []Cluster, maxIter int) (*JobResult, error) {
	if maxIter <= 0 {
		maxIter = 100
	}
	matrices := w.Matrices()
	res := &JobResult{Aggregate: &Aggregate{}, PerPhase: make([]*Aggregate, len(phases))}
	for p := range res.PerPhase {
		res.PerPhase[p] = &Aggregate{}
	}
	state := w.Init()
	// Per-phase buffers reused across iterations: the phase outputs and
	// the locally computed products of timing-only rounds.
	outputs := make([][]float64, len(phases))
	local := make([][]float64, len(phases))
	// iterSum sums an iteration's phases into the one round Aggregate sees.
	var iterSum Accounting
	for iter := 0; iter < maxIter; iter++ {
		for p, cl := range phases {
			in := w.PhaseInput(p, state, outputs[:p])
			round, y, err := cl.RunIteration(iter, in)
			if err != nil {
				return nil, fmt.Errorf("sim: %s phase %d: %w", w.Name(), p, err)
			}
			if y == nil {
				local[p] = kernel.Grow(local[p], matrices[p].Rows())
				mat.MatVecInto(matrices[p], in, local[p])
				y = local[p]
			}
			outputs[p] = y
			if p == 0 {
				iterSum.reset(iter, len(round.ComputedRows))
			}
			iterSum.Latency += round.Latency
			for i := range round.ComputedRows {
				iterSum.ComputedRows[i] += round.ComputedRows[i]
				iterSum.UsedRows[i] += round.UsedRows[i]
			}
			iterSum.Mispredicted = iterSum.Mispredicted || round.Mispredicted
			iterSum.ReassignedRows += round.ReassignedRows
			iterSum.BytesMoved += round.BytesMoved
			res.PerPhase[p].Add(round)
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
