// Command s2c2-master drives a real TCP cluster through an iterative
// coded workload: it waits for workers, encodes and distributes the data,
// then runs the selected mode — float64 gradient descent for logistic
// regression with S2C2 work assignment (the default), or exact
// GF(2³¹−1) mat-vec rounds whose results are bit-identical to a local
// compute (-mode exact) — printing per-iteration latency, straggler
// decisions, and the final quality/exactness check.
//
// Usage (one master + three workers on a laptop):
//
//	s2c2-master -listen :7077 -workers 4 -k 3 -iters 10 &
//	for i in 1 2 3; do s2c2-worker -master 127.0.0.1:7077 & done
//	s2c2-worker -master 127.0.0.1:7077 -slowdown 8   # the straggler
//
// The same worker binary serves both modes; the protocol's GF message
// types select the exact compute path per round.
//
// The exact mode serves -jobs concurrent jobs (default 1) on the one
// master — each with its own exact dataset — and runs all of their
// rounds over the same workers at once, bounded by -max-rounds with the
// -policy wait-queue discipline (fcfs or priority). Every job verifies
// its decodes bit-exactly; a single job prints each round, and the run
// prints per-job and aggregate throughput.
//
// Every mode runs its rounds through rpc.CodedPhase: speeds predicted
// from the observed elements/sec (AR(1) in the float mode, the last
// observation in the exact mode) set each round's S2C2 plan.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/rpc"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/workloads"
)

func main() {
	var (
		listen      = flag.String("listen", ":7077", "listen address")
		workers     = flag.Int("workers", 4, "number of workers (n)")
		k           = flag.Int("k", 3, "MDS recovery threshold (k)")
		iters       = flag.Int("iters", 10, "gradient-descent iterations (or exact rounds)")
		samples     = flag.Int("samples", 2000, "dataset rows")
		feats       = flag.Int("features", 200, "dataset columns")
		timeout     = flag.Float64("timeout", 0.15, "straggler timeout fraction (§4.3)")
		stall       = flag.Duration("stall-timeout", 0, "hard per-round stall deadline (0 = 30s default)")
		chunkRows   = flag.Int("chunk-rows", 0, "rows per streamed partition chunk (0 = ~256 KiB chunks)")
		chunkWindow = flag.Int("chunk-window", 0, "unacknowledged chunks in flight per worker (0 = 4)")
		mode        = flag.String("mode", "float", "workload mode: float (float64 logistic GD) or exact (bit-exact GF(2^31-1) rounds)")

		retryTries   = flag.Int("retry-attempts", 0, "distribution attempts per partition before giving up (0 = no retries); >1 re-streams failed partitions to spares")
		retryBackoff = flag.Duration("retry-backoff", 0, "base delay between distribution retries, doubled per attempt (0 = 50ms)")
		heartbeat    = flag.Duration("heartbeat", 0, "ping interval for the liveness watch over idle and parked connections (0 = off)")
		hbMiss       = flag.Int("heartbeat-miss", 0, "missed-ping budget before a silent connection is evicted (0 = 3)")
		evictAfter   = flag.Int("evict-after", 0, "consecutive failed rounds before a worker is evicted (0 = never)")

		jobs      = flag.Int("jobs", 1, "concurrent jobs served over the shared workers (exact mode only)")
		maxRounds = flag.Int("max-rounds", 0, "cap on in-flight rounds across all jobs; extra rounds park in the wait queue (0 = unlimited)")
		policy    = flag.String("policy", "fcfs", "wait-queue policy when -max-rounds saturates: fcfs or priority")
	)
	flag.Parse()
	cfg := rpc.MasterConfig{
		Addr:                *listen,
		StallTimeout:        *stall,
		ChunkRows:           *chunkRows,
		ChunkWindow:         *chunkWindow,
		Retry:               rpc.RetryConfig{MaxAttempts: *retryTries, BaseBackoff: *retryBackoff},
		Heartbeat:           *heartbeat,
		HeartbeatMiss:       *hbMiss,
		EvictAfter:          *evictAfter,
		MaxConcurrentRounds: *maxRounds,
	}
	var err error
	switch *policy {
	case "fcfs":
		cfg.Policy = rpc.FCFS()
	case "priority":
		cfg.Policy = rpc.HighestPriority()
	default:
		err = fmt.Errorf("unknown -policy %q (want fcfs or priority)", *policy)
	}
	if err == nil {
		switch *mode {
		case "float":
			if *jobs != 1 {
				err = fmt.Errorf("-jobs applies to -mode exact only")
			} else {
				err = run(cfg, *workers, *k, *iters, *samples, *feats, *timeout)
			}
		case "exact":
			if *jobs < 1 {
				err = fmt.Errorf("-jobs %d: want at least 1", *jobs)
			} else {
				err = runServe(cfg, *workers, *k, *iters, *samples, *feats, *timeout, *jobs)
			}
		default:
			err = fmt.Errorf("unknown -mode %q (want float or exact)", *mode)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "s2c2-master:", err)
		os.Exit(1)
	}
}

func run(cfg rpc.MasterConfig, n, k, iters, samples, feats int, timeoutFrac float64) error {
	m, err := rpc.NewMasterWithConfig(cfg)
	if err != nil {
		return err
	}
	defer m.Shutdown()
	fmt.Printf("master listening on %s, waiting for %d workers...\n", m.Addr(), n)
	if err := m.WaitForWorkers(n, 5*time.Minute); err != nil {
		return err
	}
	fmt.Printf("all %d workers connected\n", n)
	defer reportRecovery(m)
	ctx, job := context.Background(), m.DefaultJob()

	data := workloads.SyntheticClassification(samples, feats, 1)
	lr := &workloads.LogisticRegression{Data: data, LR: 0.5, Lambda: 1e-4, Tol: 0}
	matrices := lr.Matrices()

	code, err := coding.NewMDSCode(n, k)
	if err != nil {
		return err
	}
	code.SetExec(m.Exec()) // encode on the master's configured pool
	// Online speed estimation: both phases plan from, and observe their
	// workers' elements/sec into, one tracker whose AR(1) model is
	// refitted every iteration on the tracker's windows (each worker's
	// latest observations, at most 64), so a refit costs O(n·window)
	// however long the run.
	ar1 := &predict.AR1{}
	tracker := predict.NewTracker(ar1, n)
	phases := make([]*rpc.CodedPhase[float64], len(matrices))
	for p, mtx := range matrices {
		enc := code.Encode(mtx)
		if err := rpc.Distribute(ctx, job, p, enc.Parts); err != nil {
			return err
		}
		fmt.Printf("phase %d: distributed %d coded partitions of %dx%d\n",
			p, n, enc.BlockRows, enc.Cols)
		phases[p] = rpc.NewCodedPhase(job, p, enc, &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows}, timeoutFrac, tracker)
	}

	state := lr.Init()
	outputs := make([][]float64, len(phases))
	for iter := 0; iter < iters; iter++ {
		start := time.Now()
		var compute, resp time.Duration // slowest worker's, summed over the phases
		for p, phase := range phases {
			out, stats, err := phase.RunIteration(ctx, iter, lr.PhaseInput(p, state, outputs[:p]))
			if err != nil {
				return err
			}
			outputs[p] = out
			c, r := slowestWorker(stats)
			compute, resp = compute+c, resp+r
			if len(stats.TimedOut) > 0 {
				fmt.Printf("  iter %d phase %d: timed out %v, reassigned %d rows\n",
					iter, p, stats.TimedOut, stats.Reassigned)
			}
		}
		state, _ = lr.Update(state, outputs)
		if history := tracker.Histories(); len(history[0]) >= 3 {
			ar1.Fit(history) //nolint:errcheck // refit is best-effort
		}
		fmt.Printf("iter %2d: %8.2fms  slowest worker %s compute / %s response  loss %.4f  acc %.3f\n",
			iter, float64(time.Since(start).Microseconds())/1000, ms(compute), ms(resp),
			lr.Loss(state), lr.Accuracy(state))
	}
	fmt.Printf("final model: loss %.4f accuracy %.3f\n", lr.Loss(state), lr.Accuracy(state))
	return nil
}

// slowestWorker returns the round's critical worker's own kernel time
// (reported in its results) and its wall response time as the master saw
// it; the difference is wire, queueing and emulated straggler delay.
func slowestWorker(stats *rpc.RoundStats) (compute, resp time.Duration) {
	for w, r := range stats.ResponseTime {
		if r > resp {
			compute, resp = stats.ComputeTime[w], r
		}
	}
	return compute, resp
}

// ms formats a duration as fractional milliseconds.
func ms(d time.Duration) string { return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000) }

// reportRecovery prints the job's cumulative failure-recovery activity,
// if any worker ever needed replacing or evicting.
func reportRecovery(m *rpc.Master) {
	t := m.RecoveryTotals()
	if t.Retries == 0 && t.ReStreams == 0 && t.Evictions == 0 && t.ReplacementAdmits == 0 {
		return
	}
	fmt.Printf("recovery: %d retries, %d re-streams, %d evictions, %d replacements admitted\n",
		t.Retries, t.ReStreams, t.Evictions, t.ReplacementAdmits)
}
