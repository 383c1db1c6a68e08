package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/sim"
	"github.com/coded-computing/s2c2/internal/trace"
	"github.com/coded-computing/s2c2/internal/workloads"
)

// sim-paper is the paper's own evaluation on the discrete-event simulator:
// no sockets, real encode/compute/decode, virtual time. One operation is a
// pass over the whole job grid {workload} × {strategy} × {environment}.

const simWorkers = 12

// simStrategy is one column of the grid; the order matches simStrategies.
type simStrategy struct {
	k       int
	factory sim.StrategyFactory
}

var simGrid = []simStrategy{
	{6, sim.S2C2Factory(simWorkers, 6, 0)},
	{6, sim.BasicS2C2Factory(simWorkers, 6, 0)},
	{6, sim.MDSFactory(simWorkers, 6)},
	{10, sim.MDSFactory(simWorkers, 10)},
}

// simEnv is one speed environment: a trace and the forecaster the master
// plans from (nil: oracle speeds, the controlled cluster).
type simEnv struct {
	name string
	tr   *trace.Trace
	fc   predict.Forecaster
}

// simWorkload is one iterative job with its locally computed final state.
type simWorkload struct {
	w    workloads.Iterative
	want []float64
}

// simSetup generates the five environments and fits the cloud ones'
// LSTMs on a disjoint trace from the same generator — the set-up the
// paper pays before its first round.
func simSetup(cfg runConfig, tr *tracer) ([]simEnv, error) {
	steps := cfg.size.simIters + 5
	var envs []simEnv
	for _, s := range []int{0, 2, 4} {
		envs = append(envs, simEnv{
			name: fmt.Sprintf("controlled-%d", s),
			tr:   trace.ControlledCluster(simWorkers, s, steps, cfg.seed+int64(s)),
		})
	}
	for i, gen := range []func(int, int, int64) *trace.Trace{trace.CloudStable, trace.CloudVolatile} {
		lc := predict.DefaultLSTMConfig()
		lc.Seed = cfg.seed
		lc.Epochs = cfg.size.simEpochs
		fc := predict.NewLSTM(lc)
		train := gen(simWorkers, cfg.size.simTrainSteps, cfg.seed+1000+int64(i))
		sp := tr.begin("predict.fit", -1, 0)
		err := fc.Fit(train.Speeds)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		envs = append(envs, simEnv{
			name: []string{"cloud-stable", "cloud-volatile"}[i],
			tr:   gen(simWorkers, steps, cfg.seed+10+int64(i)),
			fc:   fc,
		})
	}
	return envs, nil
}

// simCell is one job's exact outcome; passes must repeat it bit for bit.
type simCell struct {
	latency        float64 // total virtual seconds
	rounds         int
	mispredictions int
	computed, used int
}

// simPass runs the whole grid once and returns its simulated rounds, its
// failed jobs and the per-job outcomes (strategy-major within workload
// within environment).
func simPass(cfg runConfig, jobs []simWorkload, envs []simEnv, tr *tracer, root, rid int) (rounds, failed int, cells []simCell) {
	for _, env := range envs {
		for _, job := range jobs {
			for _, st := range simGrid {
				sp := tr.begin("sim.job", root, rid)
				res, err := sim.RunIterative(job.w, sim.JobConfig{
					N: simWorkers, K: st.k,
					Strategy:   st.factory,
					Forecaster: env.fc,
					Trace:      env.tr,
					Comm:       sim.DefaultComm(),
					Timeout:    sim.DefaultTimeout(),
					Numeric:    true,
					MaxIter:    cfg.size.simIters,
					Exec:       kernel.Exec{MaxFan: 1},
				})
				tr.end(sp)
				if err != nil || !mat.VecApproxEqual(res.State, job.want, tolerance) {
					if err == nil {
						err = errors.New("final state differs from workloads.RunLocal")
					}
					fmt.Fprintf(os.Stderr, "bench: sim job %s/%s failed: %v\n", env.name, job.w.Name(), err)
					failed++
					cells = append(cells, simCell{})
					continue
				}
				a := res.Aggregate
				c := simCell{latency: a.TotalLatency, rounds: a.Rounds, mispredictions: a.Mispredictions}
				for w := range a.PerWorkerComputed {
					c.computed += a.PerWorkerComputed[w]
					c.used += a.PerWorkerUsed[w]
				}
				rounds += a.Rounds
				cells = append(cells, c)
			}
		}
	}
	return rounds, failed, cells
}

func runSim(cfg runConfig) (*measurement, error) {
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	lr := &workloads.LogisticRegression{
		Data: workloads.SyntheticClassification(cfg.size.simSamples, cfg.size.simFeatures, cfg.seed),
		LR:   0.5, Lambda: 1e-4,
	}
	pr := &workloads.PageRank{Graph: workloads.PowerLawGraph(cfg.size.simNodes, 6, cfg.seed+2), Damping: 0.85}
	jobs := make([]simWorkload, 0, 2)
	for _, w := range []workloads.Iterative{lr, pr} {
		want, _ := workloads.RunLocal(w, cfg.size.simIters)
		jobs = append(jobs, simWorkload{w, want})
	}

	window := time.Duration(cfg.seconds / float64(cfg.reps) * float64(time.Second))
	var setupS, rps, cpuMs []float64
	var passMs, tracedPassMs []float64 // wall ms per simulated round, one sample per pass
	// The heap is a few MB, so the resident peak is the deepest GC overshoot
	// seen; one mark per pass and their median say what a pass needs.
	var rssMB []float64
	var first []simCell
	var envs []simEnv
	attempted, failed, rounds := 0, 0, 0
	exact := true
	for rep := 0; rep < cfg.reps; rep++ {
		coldHeap()
		t0 := time.Now()
		var err error
		if envs, err = simSetup(cfg, tr); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())

		simPass(cfg, jobs, envs, nil, -1, 0) // warm-up
		runtime.GC()
		resetPeakRSS()
		cpu0, start := cpuSeconds(), time.Now()
		repRounds := 0
		for pass := 0; pass < 2 || time.Since(start) < window; pass++ {
			rt := tr
			if pass%2 == 1 {
				rt = nil
			}
			rid := rt.newRound()
			p0 := time.Now()
			root := rt.begin("bench.round", -1, rid)
			n, bad, cells := simPass(cfg, jobs, envs, rt, root, rid)
			rt.end(root)
			ms := float64(time.Since(p0)) / 1e6
			rssMB = append(rssMB, peakRSSMB())
			resetPeakRSS()

			attempted += len(cells)
			failed += bad
			if bad > 0 {
				continue
			}
			repRounds += n
			if rt == nil {
				passMs = append(passMs, ms/float64(n))
			} else {
				tracedPassMs = append(tracedPassMs, ms/float64(n))
			}
			// Virtual time has no noise: every pass of a run must agree.
			if first == nil {
				first = cells
			}
			for i := range cells {
				exact = exact && cells[i] == first[i]
			}
		}
		if repRounds > 0 {
			rps = append(rps, float64(repRounds)/time.Since(start).Seconds())
			cpuMs = append(cpuMs, (cpuSeconds()-cpu0)*1e3/float64(repRounds))
		}
		rounds += repRounds
	}
	if !cfg.traced {
		var err error
		setupS, err = moreSetups(setupS, func() error {
			_, err := simSetup(cfg, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	if !exact {
		fmt.Fprintln(os.Stderr, "bench: sim-paper virtual latencies differ between passes of one run")
	}

	info := map[string]any{
		"grid":             "{logistic-regression, pagerank} x {general-s2c2(12,6), basic-s2c2(12,6), mds(12,6), mds(12,10)} x {controlled 0/2/4 stragglers, cloud-stable, cloud-volatile}",
		"iterations":       cfg.size.simIters,
		"lr_shape":         []int{cfg.size.simSamples, cfg.size.simFeatures},
		"pagerank_nodes":   cfg.size.simNodes,
		"repetitions":      cfg.reps,
		"setup_samples":    len(setupS),
		"peak_rss_samples": len(rssMB),
		"simulated_rounds": rounds,
		"working_set_bytes": int64(cfg.size.simSamples)*int64(cfg.size.simFeatures)*8*2*2 +
			int64(cfg.size.simNodes)*int64(cfg.size.simNodes)*8*2,
		"min_samples_per_percentile": len(passMs) + len(tracedPassMs),
	}
	m := &measurement{attempted: attempted, failed: failed, inexact: !exact, info: info}
	if first == nil {
		m.values = map[string]float64{}
		return m, nil
	}

	// byStrategy folds the first pass's cells (all passes are identical).
	byStrategy := make([]simCell, len(simGrid))
	for i, c := range first {
		s := &byStrategy[i%len(simGrid)]
		s.latency += c.latency
		s.rounds += c.rounds
		s.mispredictions += c.mispredictions
		s.computed += c.computed
		s.used += c.used
	}
	if !cfg.traced {
		all := append(passMs, tracedPassMs...)
		m.values = map[string]float64{
			mSetup:   median(setupS),
			mRounds:  median(rps),
			mP50:     quantile(all, 0.50),
			mP95:     quantile(all, 0.95),
			mCPU:     median(cpuMs),
			mRSS:     median(rssMB),
			mSpeedup: byStrategy[2].latency / byStrategy[0].latency,
		}
		return m, nil
	}

	v := replaySim(tr, lr.Data.X, envs)
	v["predict.fit_s"] = median(tr.durationsMs("predict.fit")) / 1e3
	v["sim.job_ms"] = median(tr.durationsMs("sim.job"))
	for i, name := range simStrategies {
		s := byStrategy[i]
		v["sim.virtual_latency_s."+name] = s.latency / float64(s.rounds)
		v["sim.mispredict_rate."+name] = float64(s.mispredictions) / float64(s.rounds)
		v["sim.wasted_row_frac."+name] = float64(s.computed-s.used) / float64(s.computed)
	}
	v["bench.round_self_share"] = tr.selfShare("bench.round")
	if traced := mean(tracedPassMs); traced > 0 {
		v["bench.trace_overhead_pct"] = 100 * (1 - mean(passMs)/traced)
	}
	m.values = v
	if cfg.out != "" {
		if err := tr.write(cfg.out); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// replaySim re-runs the layers a simulated round is made of, at the
// logistic-regression phase-0 shape and the two-straggler speeds, and the
// volatile cloud's forecaster on a held-out trace.
func replaySim(tr *tracer, x *mat.Dense, envs []simEnv) map[string]float64 {
	v := map[string]float64{}
	const n, k = simWorkers, 6
	code, err := coding.NewMDSCode(n, k)
	if err != nil {
		return v
	}
	code.SetExec(kernel.Exec{MaxFan: 1})
	var enc *coding.EncodedMatrix
	v["coding.encode_s"] = replay(tr, "coding.encode", func() { enc = code.EncodeInto(x, enc) }) / 1e3

	speeds := make([]float64, n)
	for w := range speeds {
		speeds[w] = envs[1].tr.At(w, 0)
	}
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows}
	var buf sched.PlanBuffer
	var plan *sched.Plan
	v["sched.plan_us"] = 1e3 * replay(tr, "sched.plan", func() { plan, err = buf.Next(strat, speeds) })
	if err != nil {
		return v
	}
	v["sched.ranges_per_worker"] = 0
	for _, a := range plan.Assignments {
		v["sched.ranges_per_worker"] += float64(len(a)) / n
	}

	in := make([]float64, x.Cols())
	rng := rand.New(rand.NewSource(1))
	for i := range in {
		in[i] = rng.Float64()
	}
	busiest := 0
	for w := range plan.Assignments {
		if plan.RowsFor(w) > plan.RowsFor(busiest) {
			busiest = w
		}
	}
	part := enc.Parts[busiest].Data()
	dst := make([]float64, enc.BlockRows)
	sweepMs, rowMs := replaySweep(tr, "kernel.matvec", plan.Assignments[busiest], func(lo, hi int) {
		kernel.MatVecRange(dst, part, enc.Cols, in, lo, hi)
	})
	v["kernel.matvec_ms"] = sweepMs
	v["kernel.matvec_gbps"] = float64(enc.Cols) * 8 / 1e9 / (rowMs / 1e3)

	var partials []*coding.Partial
	for w, ranges := range plan.Assignments {
		if len(ranges) > 0 {
			partials = append(partials, enc.WorkerCompute(w, in, ranges))
		}
	}
	ws := enc.NewDecodeWorkspace()
	out := make([]float64, enc.OrigRows)
	v["coding.decode_ms"] = replay(tr, "coding.decode", func() { _, err = enc.DecodeMatVecInto(out, partials, ws) })
	if err != nil {
		delete(v, "coding.decode_ms")
	}

	// One-step-ahead forecasts along a trace the model never saw.
	volatile := envs[len(envs)-1]
	held := trace.CloudVolatile(simWorkers, 40, 7777)
	var pred, actual []float64
	sweepMs = replay(tr, "predict.predict", func() { // one sweep = every forecast along the held-out half
		pred, actual = pred[:0], actual[:0]
		for _, series := range held.Speeds {
			for t := len(series) / 2; t < len(series); t++ {
				pred = append(pred, volatile.fc.Predict(series[:t]))
				actual = append(actual, series[t])
			}
		}
	})
	v["predict.predict_us"] = 1e3 * sweepMs / float64(len(pred))
	v["predict.mape"] = predict.MAPE(pred, actual)
	return v
}
