// Package s2c2 is a Go implementation of Slack Squeeze Coded Computing
// (Narra et al., SC '19): straggler-tolerant distributed computation that
// encodes data once with a conservative (n,k)-MDS or polynomial code and
// then *adaptively* assigns each worker a slice of its coded partition
// proportional to its predicted speed, so no compute capacity is wasted
// when the cluster is healthier than the code assumed.
//
// The package re-exports the stable surface of the internal packages:
//
//   - dense linear algebra (Dense, MatVec, Transpose) — the from-scratch
//     mat-vec substrate every coded round runs on, fanned out over row
//     bands on a worker pool (Exec, NewKernelPool);
//   - MDS and polynomial codecs (NewMDSCode, NewPolyCode, exact GF(p)
//     variants) with per-row partial decoding;
//   - work-assignment strategies (GeneralS2C2 — Algorithm 1 of the paper,
//     BasicS2C2, ConventionalMDS);
//   - speed forecasting (NewLSTM, AR1, ARIMA models);
//   - speed-trace generators mirroring the paper's measured environments;
//   - a discrete-event cluster simulator (virtual time, real numerics)
//     and a real TCP master/worker runtime;
//   - the paper's workloads (logistic regression, SVM, PageRank, graph
//     filtering, Hessian computation).
//
// Quick start (simulated cluster, general S2C2, one straggler):
//
//	data := s2c2.NewClassificationDataset(1200, 100, 1)
//	lr := &s2c2.LogisticRegression{Data: data, LR: 0.5, Lambda: 1e-4}
//	res, err := s2c2.Simulate(lr, s2c2.SimConfig{
//		N: 10, K: 7,
//		Strategy: s2c2.S2C2Strategy(10, 7, 0),
//		Trace:    s2c2.ControlledCluster(10, 1, 50, 1),
//		MaxIter:  20,
//	})
//
// See examples/ for runnable programs and cmd/s2c2-exp for the harness
// that regenerates every figure of the paper.
package s2c2

import (
	"context"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/rpc"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/sim"
	"github.com/coded-computing/s2c2/internal/trace"
	"github.com/coded-computing/s2c2/internal/workloads"
)

// ---- Linear algebra -------------------------------------------------

// Dense is a row-major dense float64 matrix.
type Dense = mat.Dense

// NewDense returns a zeroed r-by-c matrix.
func NewDense(r, c int) *Dense { return mat.New(r, c) }

// NewDenseFromRows builds a matrix from row slices, copying them.
func NewDenseFromRows(rows [][]float64) *Dense { return mat.NewFromRows(rows) }

// MatVec computes A·x.
func MatVec(a *Dense, x []float64) []float64 { return mat.MatVec(a, x) }

// MatVecInto computes A·x into a caller slice (zero allocations).
func MatVecInto(a *Dense, x, y []float64) { mat.MatVecInto(a, x, y) }

// Transpose returns Aᵀ.
func Transpose(a *Dense) *Dense { return mat.Transpose(a) }

// ---- Coding layer ----------------------------------------------------

// Range is a half-open row interval within a coded partition.
type Range = coding.Range

// Partial is a worker's partial result over its assigned row ranges.
type Partial = coding.Partial

// MDSCode is the systematic (n,k) MDS code over float64. It and GFMDSCode
// are one implementation over two fields: the same generator, encode,
// worker compute and band-wise decode. Encode and EncodeInto borrow the
// data matrix: see EncodedMatrix.
type MDSCode = coding.MDSCode

// EncodedMatrix holds the n coded partitions of a data matrix A. It
// borrows A: partitions 0..k-1 are views of A's row blocks, not copies, so
// A must stay alive and unchanged while the encoding — or a Master it was
// distributed through, which retains the partitions for re-streaming — is
// in use. After changing A, re-encode (MDSCode.EncodeInto) and distribute
// again.
type EncodedMatrix = coding.EncodedMatrix

// NewMDSCode builds an (n,k) MDS code (any k of n partitions decode).
func NewMDSCode(n, k int) (*MDSCode, error) { return coding.NewMDSCode(n, k) }

// DecodeWorkspace holds reusable float64 MDS decode state (the band
// table, each band's parity system and its solve scratch; nothing per
// worker set); pass one to EncodedMatrix.DecodeMatVecInto to make
// steady-state decoding allocation-free.
type DecodeWorkspace = coding.DecodeWorkspace

// GFMDSCode is the same systematic MDS code as MDSCode over GF(2³¹−1):
// decodes are bit-exact. Its encodings reuse parity storage (EncodeInto)
// and compute into reused partials (WorkerComputeInto,
// WorkerComputeBatchInto) as the float64 ones do.
type GFMDSCode = coding.GFMDSCode

// GFElem is an element of GF(2³¹−1).
type GFElem = gf.Elem

// NewGFElem reduces an arbitrary integer into GF(2³¹−1).
func NewGFElem(v uint64) GFElem { return gf.New(v) }

// GFEncodedMatrix holds the n exact coded partitions of a field matrix;
// its Parts distribute over a cluster with Distribute.
// The exact code is systematic, so the encoding borrows its input:
// partitions 0..k-1 are views of the data's row blocks and only the parity
// (and a zero-padded last block) is new storage. Keep the data alive and
// unchanged while the encoding is in use, and while a Master the
// partitions were distributed through retains them — until the job closes.
type GFEncodedMatrix = coding.GFEncodedMatrix

// GFPartial is a worker's exact partial result over GF(2³¹−1) — what
// Run gathers on a GFElem round and GFEncodedMatrix.DecodeMatVec
// consumes.
type GFPartial = coding.GFPartial

// GFMatrix is a dense matrix over GF(2³¹−1).
type GFMatrix = gf.Matrix

// NewGFMatrixFromData adopts row-major field elements (length r·c) as an
// r-by-c field matrix without copying — e.g. to wrap a Lagrange share for
// distribution as an exact partition.
func NewGFMatrixFromData(r, c int, data []GFElem) *GFMatrix {
	return gf.NewMatrixFromData(r, c, data)
}

// NewGFMDSCode builds an exact (n,k) code for integer payloads.
func NewGFMDSCode(n, k int) (*GFMDSCode, error) { return coding.NewGFMDSCode(n, k) }

// CompleteGFShares assembles per-worker complete result vectors from an
// exact round's partials — the map LagrangeCode.Decode consumes.
func CompleteGFShares(partials []*GFPartial, blockRows int) (map[int][]GFElem, error) {
	return coding.CompleteGFShares(partials, blockRows)
}

// PolyCode is the polynomial code for bilinear computations (Hessians).
type PolyCode = coding.PolyCode

// EncodedBilinear holds per-worker encoded partitions for Aᵀ·diag(d)·B.
type EncodedBilinear = coding.EncodedBilinear

// NewPolyCode builds a polynomial code with n workers and an a×b block
// grid (any a·b of n evaluations decode).
func NewPolyCode(n, a, b int) (*PolyCode, error) { return coding.NewPolyCode(n, a, b) }

// LagrangeCode extends coded computing to arbitrary polynomial functions
// of the data blocks (Lagrange Coded Computing, exact over GF(2³¹−1)).
type LagrangeCode = coding.LagrangeCode

// NewLagrangeCode builds a Lagrange code with n workers over k blocks;
// a degree-d computation decodes from any (k−1)·d+1 worker results.
func NewLagrangeCode(n, k int) (*LagrangeCode, error) { return coding.NewLagrangeCode(n, k) }

// ---- Strategies (the paper's contribution) ---------------------------

// Plan maps each worker to row ranges within its coded partition.
type Plan = sched.Plan

// Strategy produces per-iteration plans from predicted speeds.
type Strategy = sched.Strategy

// GeneralS2C2 is Algorithm 1: speed-proportional cyclic chunk assignment.
type GeneralS2C2 = sched.GeneralS2C2

// BasicS2C2 is the equal-split variant that only excludes stragglers.
type BasicS2C2 = sched.BasicS2C2

// ConventionalMDS is the prior-work baseline (fastest k, rest wasted).
type ConventionalMDS = sched.ConventionalMDS

// ---- Speed prediction -------------------------------------------------

// Forecaster predicts next-iteration worker speeds.
type Forecaster = predict.Forecaster

// LSTMConfig configures the from-scratch LSTM forecaster.
type LSTMConfig = predict.LSTMConfig

// NewLSTM builds the §6.1 LSTM (1-d input/output, 4-d hidden by default).
func NewLSTM(cfg LSTMConfig) *predict.LSTM { return predict.NewLSTM(cfg) }

// DefaultLSTMConfig returns the paper's architecture.
func DefaultLSTMConfig() LSTMConfig { return predict.DefaultLSTMConfig() }

// AR1 is the ARIMA(1,0,0) baseline forecaster.
type AR1 = predict.AR1

// LastValue forecasts a worker's next speed as its last observed one.
type LastValue = predict.LastValue

// Tracker is a master's running estimate of its workers' speeds: each
// worker's last 64 observed speeds, in storage fixed at construction, and
// the forecaster that extrapolates them.
type Tracker = predict.Tracker

// NewTracker tracks n workers' speeds with forecaster f.
func NewTracker(f Forecaster, n int) *Tracker { return predict.NewTracker(f, n) }

// Ensemble is a NWS-style meta-forecaster that picks the best candidate
// model per node from trailing one-step errors.
type Ensemble = predict.Ensemble

// NewDefaultEnsemble bundles the LSTM and ARIMA family with per-node
// model selection.
func NewDefaultEnsemble(seed int64) *Ensemble { return predict.NewDefaultEnsemble(seed) }

// MAPE is the mean absolute percentage error metric (as a fraction).
func MAPE(pred, actual []float64) float64 { return predict.MAPE(pred, actual) }

// ---- Speed traces ------------------------------------------------------

// Trace holds per-worker speed series driving the simulator.
type Trace = trace.Trace

// TraceConfig parameterises the generative speed model.
type TraceConfig = trace.Config

// GenerateTrace produces a deterministic trace from the config.
func GenerateTrace(cfg TraceConfig) (*Trace, error) { return trace.Generate(cfg) }

// ControlledCluster mirrors the paper's local testbed: ±20% variation
// plus `stragglers` nodes ≥5× slower (workers 0..stragglers-1).
func ControlledCluster(workers, stragglers, steps int, seed int64) *Trace {
	return trace.ControlledCluster(workers, stragglers, steps, seed)
}

// CloudStable mirrors the low-mis-prediction cloud environment.
func CloudStable(workers, steps int, seed int64) *Trace {
	return trace.CloudStable(workers, steps, seed)
}

// CloudVolatile mirrors the high-mis-prediction cloud environment.
func CloudVolatile(workers, steps int, seed int64) *Trace {
	return trace.CloudVolatile(workers, steps, seed)
}

// ---- Simulator ----------------------------------------------------------
//
// Each engine below runs one simulated round per RunIteration call and
// returns the round's accounting and its product (nil when the round is
// timing-only). Every engine recycles both on its next call. Simulate
// runs a whole iterative job through the simulator's one job driver.

// CodedCluster simulates MDS-coded rounds under any strategy.
type CodedCluster = sim.CodedCluster

// PolyCluster simulates polynomial-coded bilinear rounds.
type PolyCluster = sim.PolyCluster

// UncodedReplication is the Hadoop/LATE-style replication baseline.
type UncodedReplication = sim.UncodedReplication

// OverDecomposition is the Charm++-style migration baseline.
type OverDecomposition = sim.OverDecomposition

// CommModel is the simulator's network cost model.
type CommModel = sim.CommModel

// TimeoutPolicy is the §4.3 straggler-timeout rule.
type TimeoutPolicy = sim.TimeoutPolicy

// SimConfig configures an iterative simulated job.
type SimConfig = sim.JobConfig

// SimResult reports a finished simulated job.
type SimResult = sim.JobResult

// Aggregate accumulates per-round metrics (latency, waste, bytes).
type Aggregate = sim.Aggregate

// DefaultComm returns a 10GbE-like network model.
func DefaultComm() CommModel { return sim.DefaultComm() }

// DefaultTimeout returns the paper's 15% timeout policy.
func DefaultTimeout() TimeoutPolicy { return sim.DefaultTimeout() }

// S2C2Strategy returns a general-S2C2 strategy factory for SimConfig.
// granularity 0 selects 4·n chunks (capped at the partition size).
func S2C2Strategy(n, k, granularity int) sim.StrategyFactory {
	return sim.S2C2Factory(n, k, granularity)
}

// BasicS2C2Strategy returns a basic-S2C2 strategy factory.
func BasicS2C2Strategy(n, k, granularity int) sim.StrategyFactory {
	return sim.BasicS2C2Factory(n, k, granularity)
}

// MDSStrategy returns a conventional-MDS strategy factory.
func MDSStrategy(n, k int) sim.StrategyFactory { return sim.MDSFactory(n, k) }

// Simulate runs an iterative workload on the simulated coded cluster, one
// CodedCluster per phase, all iterated by the same driver the experiments'
// baselines use. Defaults are applied for Comm and Timeout when
// zero-valued. Jobs reuse the parity storage of encodings that earlier
// jobs at the same shape released (at most 4 MiB is kept idle).
func Simulate(w Workload, cfg SimConfig) (*SimResult, error) {
	if cfg.Comm == (CommModel{}) {
		cfg.Comm = DefaultComm()
	}
	if cfg.Timeout == (TimeoutPolicy{}) {
		cfg.Timeout = DefaultTimeout()
	}
	return sim.RunIterative(w, cfg)
}

// ---- Workloads -----------------------------------------------------------

// Workload is an iterative computation expressed as coded mat-vec phases.
type Workload = workloads.Iterative

// ClassificationDataset is a dense binary-classification dataset.
type ClassificationDataset = workloads.Classification

// NewClassificationDataset generates a gisette-style synthetic dataset.
func NewClassificationDataset(samples, features int, seed int64) *ClassificationDataset {
	return workloads.SyntheticClassification(samples, features, seed)
}

// Graph bundles the adjacency/stochastic/Laplacian matrices of a graph.
type Graph = workloads.Graph

// NewPowerLawGraph generates a web-like directed graph.
func NewPowerLawGraph(nodes, meanOutDegree int, seed int64) *Graph {
	return workloads.PowerLawGraph(nodes, meanOutDegree, seed)
}

// LogisticRegression is coded batch gradient descent for logistic loss.
type LogisticRegression = workloads.LogisticRegression

// SVM is coded batch subgradient descent for hinge loss.
type SVM = workloads.SVM

// PageRank is coded power iteration for graph ranking.
type PageRank = workloads.PageRank

// GraphFilter is coded n-hop Laplacian filtering.
type GraphFilter = workloads.GraphFilter

// RunLocal executes a workload without a cluster (ground truth).
func RunLocal(w Workload, maxIter int) ([]float64, int) { return workloads.RunLocal(w, maxIter) }

// ---- TCP runtime -----------------------------------------------------------

// Master coordinates a real TCP cluster. Single-tenant callers pass its
// DefaultJob to Run and Distribute.
type Master = rpc.Master

// Element is a round's element type: float64, or GFElem for exact rounds.
type Element = coding.Element

// RoundSpec is one round's input to Run (rpc.RoundSpec).
type RoundSpec[T Element] = rpc.RoundSpec[T]

// Run runs one round of job j — Master.DefaultJob on a single-tenant
// master — and returns its partials and stats; see rpc.Run for the round
// contract (§4.3 timeout, reassignment, batch width, ctx).
func Run[T Element](ctx context.Context, j *Job, s RoundSpec[T]) ([]*coding.PartialOf[T], *rpc.RoundStats, error) {
	return rpc.Run(ctx, j, s)
}

// CodedPhase is one Distribute'd dataset of a job driven through the
// paper's loop, one round per RunIteration: predict the workers' speeds
// from a Tracker, plan S2C2 rows in proportion, run the round, decode into
// reused storage and observe each worker's elements/s (rpc.CodedPhase).
type CodedPhase[T Element] = rpc.CodedPhase[T]

// NewCodedPhase binds phase of job j, encoded by enc (an *EncodedMatrix or
// *GFEncodedMatrix), to strategy s, the §4.3 grace fraction timeoutFrac
// and speed tracker t; see rpc.NewCodedPhase.
func NewCodedPhase[T Element, W any](j *Job, phase int, enc rpc.Encoding[T, W], s Strategy, timeoutFrac float64, t *Tracker) *CodedPhase[T] {
	return rpc.NewCodedPhase(j, phase, enc, s, timeoutFrac, t)
}

// Distribute streams phase's coded partitions to job j's workers; the
// master retains them, and borrows the data matrix an encoding views,
// until the job closes or Shutdown returns. See rpc.Distribute.
func Distribute[T Element, M rpc.Partition[T]](ctx context.Context, j *Job, phase int, parts []M) error {
	return rpc.Distribute(ctx, j, phase, parts)
}

// Worker is the TCP worker daemon.
type Worker = rpc.Worker

// WorkerConfig configures a TCP worker.
type WorkerConfig = rpc.WorkerConfig

// MasterConfig configures a TCP master (execution pool, round-buffer
// reuse, stall deadline, partition-streaming chunk size and credit
// window, retry/heartbeat/eviction policy).
type MasterConfig = rpc.MasterConfig

// RetryConfig bounds the distribution retry engine: attempts per
// partition, exponential backoff between them, and per-attempt deadline.
type RetryConfig = rpc.RetryConfig

// RecoveryStats counts failure-recovery activity — retries, partition
// re-streams, evictions, replacement admissions, accept-loop Accept
// failures, and (per round) which workers died and how many of their rows
// were folded back into the plan.
type RecoveryStats = rpc.RecoveryStats

// Job is one tenant of a serving master: a private phase namespace of
// encoded datasets that Distribute fills and Run computes over.
// Different jobs' rounds run concurrently over the same workers
// (Master.OpenJob). Close releases the job's datasets on the master and
// on every worker.
type Job = rpc.Job

// JobConfig configures one served job (per-job Exec budget, queue
// priority).
type JobConfig = rpc.JobConfig

// JobTicket is one parked round as a PriorityPolicy sees it.
type JobTicket = rpc.JobTicket

// PriorityPolicy picks which parked round runs when a serving master's
// concurrency slot frees (MasterConfig.MaxConcurrentRounds).
type PriorityPolicy = rpc.PriorityPolicy

// FCFS is the first-come-first-served queue policy (the default).
func FCFS() PriorityPolicy { return rpc.FCFS() }

// HighestPriority prefers the parked round whose job has the largest
// JobConfig.Priority, FCFS among equals.
func HighestPriority() PriorityPolicy { return rpc.HighestPriority() }

// Exec selects the worker pool and fan-out a component runs on; use it to
// isolate co-tenant clusters in one process. The zero value shares the
// process-wide pool.
type Exec = kernel.Exec

// NewKernelPool builds a dedicated compute pool of the given size for use
// in an Exec (workers <= 0 selects GOMAXPROCS).
func NewKernelPool(workers int) *kernel.Pool { return kernel.NewPool(workers) }

// NewMaster listens for workers on addr (e.g. "127.0.0.1:0").
func NewMaster(addr string) (*Master, error) { return rpc.NewMaster(addr) }

// NewMasterWithConfig listens according to cfg.
func NewMasterWithConfig(cfg MasterConfig) (*Master, error) { return rpc.NewMasterWithConfig(cfg) }

// NewWorker dials the master and joins the cluster.
func NewWorker(cfg WorkerConfig) (*Worker, error) { return rpc.NewWorker(cfg) }
