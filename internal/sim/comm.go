// Package sim is the discrete-event cluster substrate that stands in for
// the paper's physical testbeds (local Xeon cluster, Digital Ocean
// droplets). Workers actually execute their coded kernels on real data,
// so decoded results are verifiably correct, while elapsed time is
// *virtual*: it is derived from per-worker speed traces and a
// communication model rather than wall-clock measurement. That makes
// every experiment deterministic, seedable, and fast.
//
// The package provides four engines matching the paper's evaluation,
// each running one round per RunIteration call:
//
//   - CodedCluster: MDS-coded mat-vec rounds under any sched.Strategy
//     (conventional MDS, basic S2C2, general S2C2), with the §4.3
//     timeout/reassignment recovery.
//   - PolyCluster: polynomial-coded bilinear (Hessian) rounds ± S2C2,
//     run through the same round timing model as CodedCluster.
//   - UncodedReplication: the Hadoop/LATE-style 3-replication baseline
//     with speculative re-execution.
//   - OverDecomposition: the Charm++-style baseline combining 4×
//     over-decomposition, partial replication and prediction-driven
//     partition migration.
//
// Drive runs an iterative workload to convergence with one Cluster per
// phase — any of the mat-vec engines, or a scheme built from them — and is
// the only job loop; RunIterative builds the coded clusters and calls it.
// RunIterative takes each phase's encoding from a process-wide idle list
// of encodings earlier jobs released, keyed by (n, k, rows, cols), and
// re-encodes into that storage, so a sweep of short jobs at a few shapes
// does not allocate fresh parity per job; the list retains at most
// maxRecycledBytes (4 MiB).
// PolyCluster's Hessian is not an iterative workload; its caller iterates
// it.
//
// Every engine that plans from a forecaster keeps one predict.Tracker
// (observed speeds in, planning speeds out — the bootstrap and fallback
// rules are the tracker's, not the engines'); with no forecaster an
// engine plans from the trace's true speeds and keeps no history.
package sim

// CommModel is the network cost model: every message pays Latency, and
// payloads stream at Bandwidth bytes per virtual second.
type CommModel struct {
	Latency   float64 // seconds per message
	Bandwidth float64 // bytes per second
}

// DefaultComm roughly matches a 10 GbE datacenter network.
func DefaultComm() CommModel {
	return CommModel{Latency: 0.001, Bandwidth: 1.25e9}
}

// TransferTime returns the virtual time to move `bytes` in one message.
func (c CommModel) TransferTime(bytes float64) float64 {
	if bytes <= 0 {
		return c.Latency
	}
	return c.Latency + bytes/c.Bandwidth
}

// ElemRate converts trace speed units into multiply-accumulates per
// virtual second: a speed-1.0 worker performs ElemRate MACs/second. Using
// element counts (rows × row width) rather than raw row counts keeps
// phases with different matrix shapes — e.g. X and Xᵀ in gradient
// descent — correctly weighted.
const ElemRate = 200000.0

// computeElems returns the virtual seconds a worker at `speed` needs for
// `elems` multiply-accumulates. Zero/negative speed is guarded with a
// huge constant; callers must not schedule work on such workers.
func computeElems(elems float64, speed float64) float64 {
	if elems <= 0 {
		return 0
	}
	if speed <= 0 {
		return 1e18
	}
	return elems / (speed * ElemRate)
}

// computeTime is row-based compute cost at a nominal 200-wide row.
func computeTime(rows int, speed float64) float64 {
	return computeElems(float64(rows)*200, speed)
}
