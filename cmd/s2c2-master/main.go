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
// Serving mode (-mode exact -jobs N) opens N concurrent jobs on the one
// master — each with its own exact dataset — and runs all of their
// rounds over the same workers at once, bounded by -max-rounds with the
// -policy wait-queue discipline (fcfs or priority). Every job verifies
// its decodes bit-exactly; the run prints per-job and aggregate
// throughput.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
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
			if *jobs > 1 {
				err = runServe(cfg, *workers, *k, *iters, *samples, *feats, *timeout, *jobs)
			} else {
				err = runExact(cfg, *workers, *k, *iters, *samples, *feats, *timeout)
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

// runExact drives the exact distributed path: an integer data matrix over
// GF(2³¹−1) is MDS-encoded in the field, streamed to the workers as
// uint32 partitions, and every round's distributed A·x is verified
// bit-identical to the local field compute — the guarantee float64
// rounds cannot give.
func runExact(cfg rpc.MasterConfig, n, k, iters, rows, cols int, timeoutFrac float64) error {
	m, err := rpc.NewMasterWithConfig(cfg)
	if err != nil {
		return err
	}
	defer m.Shutdown()
	fmt.Printf("master listening on %s (exact mode), waiting for %d workers...\n", m.Addr(), n)
	if err := m.WaitForWorkers(n, 5*time.Minute); err != nil {
		return err
	}
	fmt.Printf("all %d workers connected\n", n)
	// Workers dialing in after this point keep parking as warm spares for
	// the retry and eviction paths; the master's accept loop never stops.
	defer reportRecovery(m)
	ctx, job := context.Background(), m.DefaultJob()

	rng := rand.New(rand.NewSource(1))
	data := make([]gf.Elem, rows*cols)
	for i := range data {
		data[i] = gf.New(rng.Uint64())
	}
	local := gf.NewMatrixFromData(rows, cols, data)
	code, err := coding.NewGFMDSCode(n, k)
	if err != nil {
		return err
	}
	enc, err := code.Encode(rows, cols, data)
	if err != nil {
		return err
	}
	if err := rpc.Distribute(ctx, job, 0, enc.Parts); err != nil {
		return err
	}
	fmt.Printf("distributed %d exact GF(2^31-1) partitions of %dx%d\n", n, enc.BlockRows, cols)

	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows}
	speeds := make([]float64, n)
	for i := range speeds {
		speeds[i] = 1
	}
	decWS := enc.NewDecodeWorkspace()
	dst := make([]gf.Elem, enc.OrigRows)
	x := make([]gf.Elem, cols)
	want := make([]gf.Elem, rows)
	for iter := 0; iter < iters; iter++ {
		for i := range x {
			x[i] = gf.New(rng.Uint64())
		}
		local.MulVecInto(want, x)
		plan, err := job.PlanRound(strat, speeds)
		if err != nil {
			return err
		}
		start := time.Now()
		partials, stats, err := rpc.Run(ctx, job, rpc.RoundSpec[gf.Elem]{Iter: iter, X: x, Plan: plan, K: k, TimeoutFrac: timeoutFrac})
		if err != nil {
			return err
		}
		if _, err := enc.DecodeMatVecInto(dst, partials, decWS); err != nil {
			return err
		}
		for r := range want {
			if dst[r] != want[r] {
				return fmt.Errorf("iter %d row %d: distributed %d != local %d — exactness violated", iter, r, dst[r], want[r])
			}
		}
		for w := 0; w < n; w++ {
			if stats.ResponseTime[w] > 0 && stats.AssignedRows[w] > 0 {
				speeds[w] = float64(stats.AssignedRows[w]) / stats.ResponseTime[w].Seconds()
			}
		}
		if len(stats.TimedOut) > 0 {
			fmt.Printf("  iter %d: timed out %v, reassigned %d rows\n", iter, stats.TimedOut, stats.Reassigned)
		}
		compute, resp := slowestWorker(stats)
		fmt.Printf("iter %2d: %8.2fms  slowest worker %s compute / %s response  bit-exact ✓\n",
			iter, float64(time.Since(start).Microseconds())/1000, ms(compute), ms(resp))
	}
	fmt.Printf("all %d exact rounds decoded bit-identically to the local field compute\n", iters)
	return nil
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
	encs := make([]*coding.EncodedMatrix, len(matrices))
	strategies := make([]*sched.GeneralS2C2, len(matrices))
	for p, mtx := range matrices {
		encs[p] = code.Encode(mtx)
		strategies[p] = &sched.GeneralS2C2{N: n, K: k, BlockRows: encs[p].BlockRows}
		if err := rpc.Distribute(ctx, job, p, encs[p].Parts); err != nil {
			return err
		}
		fmt.Printf("phase %d: distributed %d coded partitions of %dx%d\n",
			p, n, encs[p].BlockRows, encs[p].Cols)
	}

	// Online speed estimation: observed elements/sec per worker feed an
	// AR(1) model refitted as history accumulates.
	ar1 := &predict.AR1{}
	tracker := predict.NewTracker(ar1, n)
	speeds, observed := make([]float64, n), make([]float64, n)
	state := lr.Init()
	for iter := 0; iter < iters; iter++ {
		tracker.PredictInto(speeds)
		start := time.Now()
		outputs := make([][]float64, len(matrices))
		var compute, resp time.Duration // slowest worker's, summed over the phases
		for p := range matrices {
			in := lr.PhaseInput(p, state, outputs[:p])
			plan, err := job.PlanRound(strategies[p], speeds)
			if err != nil {
				return err
			}
			partials, stats, err := rpc.Run(ctx, job, rpc.RoundSpec[float64]{Iter: iter, Phase: p, X: in, Plan: plan, K: k, TimeoutFrac: timeoutFrac})
			if err != nil {
				return err
			}
			out, err := encs[p].DecodeMatVec(partials)
			if err != nil {
				return err
			}
			outputs[p] = out
			for w := range observed {
				observed[w] = 0 // no result, or nothing assigned: carry the last rate
				if stats.ResponseTime[w] > 0 && stats.AssignedRows[w] > 0 {
					observed[w] = float64(stats.AssignedRows[w]*encs[p].Cols) / stats.ResponseTime[w].Seconds()
				}
			}
			tracker.Observe(observed)
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
