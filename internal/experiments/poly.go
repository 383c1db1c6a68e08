package experiments

import (
	"fmt"
	"math/rand"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/sim"
	"github.com/coded-computing/s2c2/internal/trace"
	"github.com/coded-computing/s2c2/internal/workloads"
)

// runPolyComparison executes the §7.2.3 Hessian workload (Aᵀ·diag(x)·A,
// a=b=3, 12 nodes, any 9 decode) under conventional polynomial coding and
// under S2C2, in one environment.
func runPolyComparison(c Config, gen func(workers, steps int, seed int64) *trace.Trace) (conv, s2c2 float64, mispred float64, err error) {
	iters := c.iters()
	s := c.scale()
	rng := rand.New(rand.NewSource(c.Seed))
	// Paper: 6000×6000; scaled-down default keeps the bench fast while
	// preserving the a·b structure.
	a := mat.Rand(120*s, 90*s, rng)
	code, err := coding.NewPolyCode(12, 3, 3)
	if err != nil {
		return 0, 0, 0, err
	}
	enc, err := code.EncodeHessian(a)
	if err != nil {
		return 0, 0, 0, err
	}
	fc, err := fitForecaster(c, gen, 12)
	if err != nil {
		return 0, 0, 0, err
	}
	run := func(strategy sched.Strategy, fc predict.Forecaster) (float64, float64, error) {
		tr := gen(12, iters+5, c.Seed)
		pc := &sim.PolyCluster{
			Enc: enc, Strategy: strategy, Forecaster: fc,
			Trace: tr, Comm: comm(), Timeout: timeout(),
		}
		agg := &sim.Aggregate{}
		d := make([]float64, a.Rows())
		for i := range d {
			d[i] = rng.Float64()
		}
		for iter := 0; iter < iters; iter++ {
			r, _, err := pc.RunIteration(iter, d)
			if err != nil {
				return 0, 0, err
			}
			agg.Add(r)
		}
		return agg.MeanLatency(), agg.MispredictionRate(), nil
	}
	convLat, _, err := run(&sched.ConventionalMDS{N: 12, K: 9, BlockRows: enc.BlockColsA}, fc)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("conventional poly: %w", err)
	}
	s2c2Lat, mp, err := run(&sched.GeneralS2C2{N: 12, K: 9, BlockRows: enc.BlockColsA, Granularity: enc.BlockColsA}, fc)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("s2c2 poly: %w", err)
	}
	return convLat, s2c2Lat, mp, nil
}

// RunFig12Polynomial reproduces Figure 12: polynomial codes ± S2C2 under
// low and high mis-prediction. Paper: conventional is 1.19× (low) and
// 1.14× (high) of S2C2.
func RunFig12Polynomial(c Config) ([]*Table, error) {
	t := &Table{
		Title:   "Figure 12: Hessian (AᵀDA) with polynomial codes (12 nodes, a=b=3, any 9 decode)",
		Headers: []string{"environment", "conventional poly", "poly + s2c2", "paper conv", "mispred rate"},
		Notes:   []string{"normalized per environment to poly+s2c2; paper: 1.19 (low), 1.14 (high)"},
	}
	for _, env := range []struct {
		name  string
		gen   func(int, int, int64) *trace.Trace
		paper string
	}{
		{"low mis-prediction", trace.CloudStable, "1.19"},
		{"high mis-prediction", trace.CloudVolatile, "1.14"},
	} {
		conv, s2c2, mp, err := runPolyComparison(c, env.gen)
		if err != nil {
			return nil, err
		}
		t.AddRow(env.name, f2(conv/s2c2), "1.00", env.paper, pct(mp))
	}
	return []*Table{t}, nil
}

// RunFig13Scale reproduces Figure 13: SVM under (50,40) coding on a
// 51-node cluster, MDS vs S2C2, low and high mis-prediction. Paper:
// MDS is 1.25× (low) and 1.12× (high) of S2C2; the ideal low-mis-
// prediction gap is (50−40)/40 = 25%.
func RunFig13Scale(c Config) ([]*Table, error) {
	iters := c.iters()
	t := &Table{
		Title:   "Figure 13: SVM at scale, (50,40) coding on 50 workers",
		Headers: []string{"environment", "mds(50,40)", "s2c2(50,40)", "paper mds"},
		Notes:   []string{"normalized per environment to s2c2(50,40); paper: 1.25 (low), 1.12 (high)"},
	}
	for _, env := range []struct {
		name  string
		gen   func(int, int, int64) *trace.Trace
		paper string
	}{
		{"low mis-prediction", trace.CloudStable, "1.25"},
		{"high mis-prediction", trace.CloudVolatile, "1.12"},
	} {
		fc, err := fitForecaster(c, env.gen, 50)
		if err != nil {
			return nil, err
		}
		// A (50,40) code needs partitions large enough that chunk
		// quantization is negligible; the paper duplicated gisette (5000
		// features) for the same reason.
		s := c.scale()
		data := workloads.SyntheticClassification(1500*s, 600*s, c.Seed+1)
		svm := &workloads.SVM{Data: data, LR: 0.2, Lambda: 1e-3, Tol: 0}
		trM := env.gen(50, iters+5, c.Seed)
		mds, err := runCodedJob(svm, 50, 40, sim.MDSFactory(50, 40), fc, trM, iters)
		if err != nil {
			return nil, err
		}
		trS := env.gen(50, iters+5, c.Seed)
		s2c2, err := runCodedJob(svm, 50, 40, sim.S2C2Factory(50, 40, 0), fc, trS, iters)
		if err != nil {
			return nil, err
		}
		base := s2c2.MeanLatency()
		t.AddRow(env.name, f2(mds.MeanLatency()/base), "1.00", env.paper)
	}
	return []*Table{t}, nil
}
