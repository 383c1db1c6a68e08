package main

import (
	"math/rand"
	"slices"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/rpc"
	"github.com/coded-computing/s2c2/internal/sched"
)

// sizes holds every workload's shape; the smoke test shrinks them.
type sizes struct {
	dramRows, dramCols       int
	gfRows, gfCols, gfWidth  int
	mixRows, mixCols         int
	mixRowDelay              time.Duration
	simSamples, simFeatures  int
	simNodes, simIters       int
	simTrainSteps, simEpochs int
}

var fullSizes = sizes{
	dramRows: 12288, dramCols: 1024,
	gfRows: 1536, gfCols: 256, gfWidth: 8,
	mixRows: 6144, mixCols: 256, mixRowDelay: 8 * time.Microsecond,
	simSamples: 600, simFeatures: 48, simNodes: 240, simIters: 15,
	simTrainSteps: 200, simEpochs: 30,
}

// poolSize is how many seeded input vectors (or batches) a client cycles
// through. The runtime keeps nothing keyed on x, so a cycled pool loads it
// exactly as fresh vectors would, while the ground truth of every round
// is computed once, outside the measured window.
const poolSize = 16

func ones(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// floatPool draws the input vectors and computes their local products.
func floatPool(a *mat.Dense, rng *rand.Rand) (xs, want [][]float64) {
	for i := 0; i < poolSize; i++ {
		x := make([]float64, a.Cols())
		for j := range x {
			x[j] = 2*rng.Float64() - 1
		}
		xs = append(xs, x)
		want = append(want, mat.MatVec(a, x))
	}
	return xs, want
}

// tolerance of a float64 decode against the local product, per entry:
// relative, with the same absolute floor (mat.VecApproxEqual).
const tolerance = 1e-9

// floatClient drives float64 single-x rounds on the master's default job
// through the reuse path every iterative driver takes: ReuseRound
// partials decoded into a fixed destination with one DecodeWorkspace.
func floatClient(m *rpc.Master, enc *coding.EncodedMatrix, n, k int, timeoutFrac float64,
	speeds []float64, mispredicted func(int) bool, xs, want [][]float64) *client {
	s2c2 := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows}
	mds := &sched.ConventionalMDS{N: n, K: k, BlockRows: enc.BlockRows}
	uniform := ones(n)
	ws := enc.NewDecodeWorkspace()
	dst := make([]float64, enc.OrigRows)
	var partials []*coding.Partial
	var got []float64
	return &client{
		plan: func(useMDS, mis bool) (*sched.Plan, error) {
			switch {
			case useMDS:
				return m.PlanRound(mds, uniform)
			case mis:
				return m.PlanRound(s2c2, uniform)
			}
			return m.PlanRound(s2c2, speeds)
		},
		round: func(iter int, plan *sched.Plan) (rs *rpc.RoundStats, err error) {
			partials, rs, err = m.RunRound(iter, 0, xs[iter%poolSize], plan, k, timeoutFrac)
			return rs, err
		},
		decode: func() (err error) {
			got, err = enc.DecodeMatVecInto(dst, partials, ws)
			return err
		},
		check:        func(iter int) bool { return mat.VecApproxEqual(got, want[iter%poolSize], tolerance) },
		mispredicted: mispredicted,
	}
}

// floatInstance encodes a, brings the cluster up, distributes, and wires
// the single client — the set-up shared by the two float64 workloads.
func floatInstance(tr *tracer, a *mat.Dense, n, k int, workers []rpc.WorkerConfig, timeoutFrac float64,
	speeds []float64, mispredicted func(int) bool, xs, want [][]float64) (*rpcInstance, error) {
	cl, err := startCluster(rpc.MasterConfig{ReuseRound: true}, workers)
	if err != nil {
		return nil, err
	}
	code, err := coding.NewMDSCode(n, k)
	if err != nil {
		cl.stop()
		return nil, err
	}
	code.SetExec(cl.m.Exec())
	sp := tr.begin("coding.encode", -1, 0)
	enc := code.Encode(a)
	tr.end(sp)
	sp = tr.begin("rpc.distribute", -1, 0)
	err = cl.m.DistributePartitions(0, enc)
	tr.end(sp)
	if err != nil {
		cl.stop()
		return nil, err
	}
	return &rpcInstance{
		cl:               cl,
		clients:          []*client{floatClient(cl.m, enc, n, k, timeoutFrac, speeds, mispredicted, xs, want)},
		coverRows:        k * enc.BlockRows,
		distributedBytes: int64(n) * int64(enc.BlockRows) * int64(enc.Cols) * 8,
		replay: func(tr *tracer, roundMs float64) map[string]float64 {
			plan, err := (&sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows}).Plan(speeds)
			if err != nil {
				return nil
			}
			part := enc.Parts[0].Data()
			dst := make([]float64, enc.BlockRows)
			sweepMs, rowMs := replaySweep(tr, "kernel.matvec", plan.Assignments[0], func(lo, hi int) {
				kernel.MatVecRange(dst, part, enc.Cols, xs[0], lo, hi)
			})
			v := map[string]float64{
				"kernel.matvec_ms": sweepMs,
				// Computed bytes: the swept rows, read once.
				"kernel.matvec_gbps":    float64(enc.Cols) * 8 / 1e9 / (rowMs / 1e3),
				"rpc.round_overhead_ms": roundMs - slowestWorkerMs(plan, rowMs, workers),
			}
			replayWire(tr, v, float64IO, plan, xs[0], 1)
			return v
		},
	}, nil
}

// dramWorkload: float64 MDS(4,3) over a matrix far larger than L2, no
// emulated delay — worker compute is the round.
func dramWorkload(cfg runConfig) (rpcSetup, map[string]any) {
	const n, k = 4, 3
	rng := rand.New(rand.NewSource(cfg.seed))
	a := mat.Rand(cfg.size.dramRows, cfg.size.dramCols, rng)
	xs, want := floatPool(a, rng)
	info := map[string]any{
		"code": "float64 MDS(4,3)", "rows": a.Rows(), "cols": a.Cols(),
		"working_set_bytes": int64(a.Rows()) * int64(a.Cols()) * 8 * n / k,
	}
	return func(tr *tracer) (*rpcInstance, error) {
		return floatInstance(tr, a, n, k, make([]rpc.WorkerConfig, n), 10, ones(n), nil, xs, want)
	}, info
}

// stragglerWorkload: the paper's controlled cluster. Node speeds are
// emulated with a per-row delay, so the plan's balance and the timeout
// path set the round time and the kernel almost none of it.
func stragglerWorkload(cfg runConfig) (rpcSetup, map[string]any) {
	const n, k = 6, 4
	rng := rand.New(rand.NewSource(cfg.seed))
	a := mat.Rand(cfg.size.mixRows, cfg.size.mixCols, rng)
	xs, want := floatPool(a, rng)
	workers := make([]rpc.WorkerConfig, n)
	speeds := ones(n)
	for i := range workers {
		workers[i] = rpc.WorkerConfig{PerRowDelay: cfg.size.mixRowDelay, Slowdown: 1}
	}
	workers[4].Slowdown, workers[5].Slowdown = 1.5, 5
	for i, w := range workers {
		speeds[i] = 1 / w.Slowdown
	}
	// One seeded round in every ten is planned from uniform speeds: the
	// paper's mispredicted rounds, which trip the timeout and reassign.
	pick := make([]int, 1<<12)
	for i := range pick {
		pick[i] = rng.Intn(10)
	}
	mispredicted := func(iter int) bool { return iter%10 == pick[(iter/10)%len(pick)] }
	info := map[string]any{
		"code": "float64 MDS(6,4)", "rows": a.Rows(), "cols": a.Cols(),
		"working_set_bytes":    int64(a.Rows()) * int64(a.Cols()) * 8 * n / k,
		"per_row_delay_us":     float64(cfg.size.mixRowDelay) / 1e3,
		"slowdowns":            []float64{1, 1, 1, 1, 1.5, 5},
		"mispredicted_rounds":  "1 in 10, seeded",
		"straggler_timeout_of": 0.15,
	}
	return func(tr *tracer) (*rpcInstance, error) {
		return floatInstance(tr, a, n, k, workers, 0.15, speeds, mispredicted, xs, want)
	}, info
}

// gfTenant is one gf-batch-serve job's dataset and ground truth.
type gfTenant struct {
	data []gf.Elem
	xs   [][]gf.Elem // poolSize batches of width concatenated vectors
	want [][]gf.Elem // row-major width-wide local products
}

func newGFTenant(rng *rand.Rand, rows, cols, width int) *gfTenant {
	t := &gfTenant{data: make([]gf.Elem, rows*cols)}
	for i := range t.data {
		t.data[i] = gf.New(rng.Uint64())
	}
	local := gf.NewMatrixFromData(rows, cols, t.data)
	lane := make([]gf.Elem, rows)
	for b := 0; b < poolSize; b++ {
		xs := make([]gf.Elem, width*cols)
		for i := range xs {
			xs[i] = gf.New(rng.Uint64())
		}
		want := make([]gf.Elem, rows*width)
		for l := 0; l < width; l++ {
			local.MulVecInto(lane, xs[l*cols:(l+1)*cols])
			for r, v := range lane {
				want[r*width+l] = v
			}
		}
		t.xs, t.want = append(t.xs, xs), append(t.want, want)
	}
	return t
}

// gfClient drives width-w exact batch rounds on one served job; every
// decode is compared bit for bit.
func gfClient(j *rpc.Job, enc *coding.GFEncodedMatrix, n, k, width int, t *gfTenant) *client {
	s2c2 := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows}
	mds := &sched.ConventionalMDS{N: n, K: k, BlockRows: enc.BlockRows}
	uniform := ones(n)
	ws := enc.NewDecodeWorkspace()
	dst := make([]gf.Elem, enc.OrigRows*width)
	var partials []*coding.GFPartial
	var got []gf.Elem
	return &client{
		plan: func(useMDS, _ bool) (*sched.Plan, error) {
			if useMDS {
				return j.PlanRound(mds, uniform)
			}
			return j.PlanRound(s2c2, uniform)
		},
		round: func(iter int, plan *sched.Plan) (rs *rpc.RoundStats, err error) {
			partials, rs, err = j.RunGFRoundBatch(iter, 0, t.xs[iter%poolSize], width, plan, k, 10)
			return rs, err
		},
		decode: func() (err error) {
			got, err = enc.DecodeMatVecInto(dst, partials, ws)
			return err
		},
		check: func(iter int) bool { return slices.Equal(got, t.want[iter%poolSize]) },
	}
}

// gfServeWorkload: two served jobs of small exact batch rounds — the
// kernel sweep is cache-resident, so per-round overhead is the round.
func gfServeWorkload(cfg runConfig) (rpcSetup, map[string]any) {
	const n, k, jobs = 4, 3, 2
	rows, cols, width := cfg.size.gfRows, cfg.size.gfCols, cfg.size.gfWidth
	rng := rand.New(rand.NewSource(cfg.seed))
	tenants := make([]*gfTenant, jobs)
	for i := range tenants {
		tenants[i] = newGFTenant(rng, rows, cols, width)
	}
	info := map[string]any{
		"code": "GF(2^31-1) MDS(4,3)", "rows": rows, "cols": cols, "width": width, "jobs": jobs,
		"working_set_bytes": int64(jobs) * int64(rows) * int64(cols) * 4 * n / k,
	}
	return func(tr *tracer) (*rpcInstance, error) {
		cl, err := startCluster(rpc.MasterConfig{ReuseRound: true}, make([]rpc.WorkerConfig, n))
		if err != nil {
			return nil, err
		}
		inst := &rpcInstance{cl: cl}
		var enc0 *coding.GFEncodedMatrix
		for _, t := range tenants {
			j := cl.m.OpenJob(rpc.JobConfig{})
			code, err := coding.NewGFMDSCode(n, k)
			if err != nil {
				cl.stop()
				return nil, err
			}
			code.SetExec(j.Exec())
			sp := tr.begin("coding.encode", -1, 0)
			enc, err := code.Encode(rows, cols, t.data)
			tr.end(sp)
			if err == nil {
				sp = tr.begin("rpc.distribute", -1, 0)
				err = j.DistributeGFPartitions(0, enc.Parts)
				tr.end(sp)
			}
			if err != nil {
				cl.stop()
				return nil, err
			}
			if enc0 == nil {
				enc0 = enc
			}
			inst.clients = append(inst.clients, gfClient(j, enc, n, k, width, t))
			inst.coverRows = k * enc.BlockRows
			// Per job: the distribute span is per job too.
			inst.distributedBytes = int64(n) * int64(enc.BlockRows) * int64(cols) * 4
		}
		inst.replay = func(tr *tracer, roundMs float64) map[string]float64 {
			plan, err := (&sched.GeneralS2C2{N: n, K: k, BlockRows: enc0.BlockRows}).Plan(ones(n))
			if err != nil {
				return nil
			}
			xs := gf.AsUint32s(tenants[0].xs[0])
			part := gf.AsUint32s(enc0.Parts[0].Data())
			dst := make([]uint32, enc0.BlockRows*width)
			sweepMs, rowMs := replaySweep(tr, "kernel.gf_matvec_batch", plan.Assignments[0], func(lo, hi int) {
				kernel.GFMatVecBatchMod31(dst, part, cols, xs, width, lo, hi)
			})
			v := map[string]float64{
				"kernel.gf_matvec_batch_ms": sweepMs,
				"rpc.round_overhead_ms":     roundMs - slowestWorkerMs(plan, rowMs, make([]rpc.WorkerConfig, n)),
			}
			replayWire(tr, v, uint32IO, plan, xs, width)
			return v
		}
		return inst, nil
	}, info
}
