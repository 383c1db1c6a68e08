package main

import (
	"runtime"
	"runtime/debug"
	"time"
)

// runConfig is one workload run's parameters.
type runConfig struct {
	seed      int64
	seconds   float64 // measured time, shared by the repetitions
	reps      int     // fresh set-ups per run
	minRounds int     // floor on rounds per repetition's S2C2 lane
	traced    bool
	size      sizes
	out       string // span dump path (traced runs), empty for none
}

// measurement is one workload run's outcome: the end-to-end metrics of an
// untraced run, or the per-layer metrics of a traced one.
type measurement struct {
	values    map[string]float64
	attempted int
	failed    int
	// inexact is set when a check outside the per-operation count failed
	// (sim-paper's passes must repeat exactly).
	inexact bool
	info    map[string]any // sample counts, round counts, working set
}

// rpcInstance is one repetition's fresh cluster, its dataset encoded and
// distributed, ready for the first round.
type rpcInstance struct {
	cl      *cluster
	clients []*client
	// coverRows is k·blockRows per client round: the rows a round must
	// cover, the useful part of the rows it assigns.
	coverRows int
	// distributedBytes is the coded dataset streamed during set-up.
	distributedBytes int64
	// replay re-runs single layers outside the measured window (traced
	// runs only) and returns their per-layer metrics; roundMs is the
	// measured median of the rpc.round span.
	replay func(tr *tracer, roundMs float64) map[string]float64
}

type rpcSetup func(tr *tracer) (*rpcInstance, error)

const (
	warmRounds = 8
	// A run sets up at least setupSamples times, so that setup_s is a
	// median over more than the measured repetitions; the extra set-ups
	// stop early once they have used extraSetupBudget.
	setupSamples     = 15
	extraSetupBudget = 2 * time.Second
	// s2c2Share of a repetition's window goes to the S2C2 lane, whose
	// rounds feed the latency metrics; the rest times the same cluster
	// under conventional MDS for s2c2_speedup.
	s2c2Share = 0.7
)

// coldHeap drops the previous repetition's dataset and hands the freed
// memory back to the OS, so every set-up pays the page faults a job pays
// when it loads its dataset once; a warm heap made later set-ups of a run
// up to twice as fast as the first.
func coldHeap() { debug.FreeOSMemory() }

// moreSetups repeats the set-up alone, appending its times, until the run
// has setupSamples of them or the extra ones have used their budget.
func moreSetups(setupS []float64, setup func() error) ([]float64, error) {
	for start := time.Now(); len(setupS) < setupSamples && time.Since(start) < extraSetupBudget; {
		coldHeap()
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	return setupS, nil
}

// runRPC measures one TCP workload: reps fresh clusters, on each an S2C2
// lane and then a conventional-MDS lane over the same coded data. Every
// reported value is the median of the per-repetition values.
func runRPC(cfg runConfig, setup rpcSetup, info map[string]any) (*measurement, error) {
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	per := time.Duration(cfg.seconds / float64(cfg.reps) * float64(time.Second))
	s2Window := time.Duration(float64(per) * s2c2Share)

	var setupS, rps, p50, p95, cpuMs, rssMB, speedup []float64
	var pooled laneStats // S2C2 lanes of every repetition
	var distBytes int64
	attempted, failed := 0, 0
	mdsRounds, minSamples := 0, 0
	var layer map[string]float64
	coverRows := 0
	for rep := 0; rep < cfg.reps; rep++ {
		coldHeap()
		resetPeakRSS()
		t0 := time.Now()
		inst, err := setup(tr)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		coverRows, distBytes = inst.coverRows, inst.distributedBytes

		// Buffers, pools and decode factorisations fill before timing.
		warm := runLane(inst.clients, 0, warmRounds, false, nil)
		runtime.GC()
		s2 := runLane(inst.clients, s2Window, cfg.minRounds, false, tr)
		// A few unmeasured rounds absorb what the S2C2 lane's abandoned
		// stragglers still send.
		warmMDS := runLane(inst.clients, 0, warmRounds, true, nil)
		mds := runLane(inst.clients, per-s2Window, cfg.minRounds/4, true, nil)
		for _, l := range []*laneStats{&warm, &s2, &warmMDS, &mds} {
			attempted += l.attempted
			failed += l.failed
		}
		if rep == cfg.reps-1 && tr != nil {
			layer = inst.replay(tr, median(tr.durationsMs("rpc.round")))
		}
		inst.cl.stop()
		rssMB = append(rssMB, peakRSSMB())

		lat := append(s2.latMs, s2.tracedMs...)
		if len(lat) == 0 || len(mds.latMs) == 0 {
			continue // every round failed; reported through failed
		}
		rps = append(rps, float64(s2.rounds())/s2.wallS)
		p50 = append(p50, quantile(lat, 0.50))
		p95 = append(p95, quantile(lat, 0.95))
		cpuMs = append(cpuMs, s2.cpuS*1e3/float64(s2.rounds()))
		speedup = append(speedup, mean(mds.latMs)/mean(lat))
		if minSamples == 0 || len(lat) < minSamples {
			minSamples = len(lat)
		}
		mdsRounds += mds.rounds()
		pooled.merge(&s2)
	}

	if !cfg.traced {
		var err error
		setupS, err = moreSetups(setupS, func() error {
			inst, err := setup(nil)
			if err == nil {
				inst.cl.stop()
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}

	m := &measurement{attempted: attempted, failed: failed, info: info}
	info["setup_samples"] = len(setupS)
	info["peak_rss_mb_per_repetition"] = rssMB
	info["repetitions"] = cfg.reps
	info["s2c2_rounds"] = pooled.rounds()
	info["mds_rounds"] = mdsRounds
	info["min_samples_per_percentile"] = minSamples
	if !cfg.traced {
		m.values = map[string]float64{
			mSetup:   median(setupS),
			mRounds:  median(rps),
			mP50:     median(p50),
			mP95:     median(p95),
			mCPU:     median(cpuMs),
			mRSS:     median(rssMB),
			mSpeedup: median(speedup),
		}
		return m, nil
	}

	v := layer
	if v == nil {
		v = map[string]float64{}
	}
	roundMs := tr.durationsMs("rpc.round")
	decodeMs := tr.durationsMs("coding.decode")
	v["sched.plan_us"] = median(tr.durationsMs("sched.plan")) * 1e3
	v["rpc.round_ms"] = median(roundMs)
	v["rpc.round_p99_ms"] = quantile(roundMs, 0.99)
	v["coding.decode_ms"] = median(decodeMs)
	if total := mean(tr.durationsMs("bench.round")); total > 0 {
		v["coding.decode_share"] = mean(decodeMs) / total
	}
	v["coding.encode_s"] = median(tr.durationsMs("coding.encode")) / 1e3
	v["rpc.distribute_s"] = median(tr.durationsMs("rpc.distribute")) / 1e3
	if d := v["rpc.distribute_s"]; d > 0 {
		v["rpc.distribute_mb_per_s"] = float64(distBytes) / 1e6 / d
	}
	if n := float64(pooled.counted); n > 0 {
		v["sched.wasted_row_frac"] = 1 - float64(coverRows)*n/float64(pooled.assignedRows)
		v["sched.ranges_per_worker"] = float64(pooled.ranges) / float64(pooled.planWorkers)
		v["rpc.reassigned_rows_per_round"] = float64(pooled.reassigned) / n
		v["rpc.timed_out_per_round"] = float64(pooled.timedOut) / n
	}
	v["rpc.resp_spread_ms"] = median(pooled.respSpreadMs)
	v["rpc.mispredicted_round_p50_ms"] = median(pooled.mispredMs)
	if pooled.attempted > 0 {
		v["rpc.allocs_per_round"] = float64(pooled.mallocs) / float64(pooled.attempted)
	}
	v["bench.round_self_share"] = tr.selfShare("bench.round")
	if traced := mean(pooled.tracedMs); traced > 0 {
		v["bench.trace_overhead_pct"] = 100 * (1 - mean(pooled.latMs)/traced)
	}
	info["p99_samples"] = len(roundMs)
	m.values = v
	if cfg.out != "" {
		if err := tr.write(cfg.out); err != nil {
			return nil, err
		}
	}
	return m, nil
}
