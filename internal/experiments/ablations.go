package experiments

import (
	"fmt"

	"github.com/coded-computing/s2c2/internal/coding"

	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/sim"
	"github.com/coded-computing/s2c2/internal/trace"
	"github.com/coded-computing/s2c2/internal/workloads"
)

// Ablation studies for S2C2's design choices. These go beyond the
// paper's figures: they quantify why S2C2's specific
// parameter choices (15% timeout, chunked cyclic layout, over-
// decomposition granularity, LSTM predictor) matter.

// RunAblateTimeout sweeps the §4.3 timeout fraction in a volatile
// environment: too tight re-executes work that was about to arrive, too
// loose waits on genuinely dead workers.
func RunAblateTimeout(c Config) ([]*Table, error) {
	iters := c.iters()
	fc, err := fitForecaster(c, trace.CloudVolatile, 10)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation: timeout fraction (paper picks 15% ≈ predictor MAPE)",
		Headers: []string{"timeout", "mean latency", "mispred rate", "reassigned rows/iter"},
	}
	svm := svmWorkload(c, 70)
	for _, frac := range []float64{0.05, 0.10, 0.15, 0.25, 0.50} {
		tr := trace.CloudVolatile(10, iters+5, c.Seed)
		res, err := sim.RunIterative(svm, sim.JobConfig{
			N: 10, K: 7,
			Strategy:   sim.S2C2Factory(10, 7, 0),
			Forecaster: fc,
			Trace:      tr,
			Comm:       comm(),
			Timeout:    sim.TimeoutPolicy{Fraction: frac},
			MaxIter:    iters,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(pct(frac), f3(res.Aggregate.MeanLatency()),
			pct(res.Aggregate.MispredictionRate()),
			f1(float64(res.Aggregate.ReassignedRows)/float64(res.Aggregate.Rounds)))
	}
	return []*Table{t}, nil
}

// RunAblateGranularity sweeps the over-decomposition factor of Algorithm
// 1: more chunks track speeds more precisely but give diminishing
// returns.
func RunAblateGranularity(c Config) ([]*Table, error) {
	iters := c.iters()
	t := &Table{
		Title:   "Ablation: Algorithm-1 chunk granularity (chunks per partition)",
		Headers: []string{"granularity", "mean latency", "mispred rate"},
		Notes:   []string{"oracle speeds; quantization error shrinks as granularity grows"},
	}
	svm := svmWorkload(c, 70)
	for _, g := range []int{5, 10, 20, 40, 80} {
		tr := trace.CloudStable(10, iters+5, c.Seed)
		res, err := sim.RunIterative(svm, sim.JobConfig{
			N: 10, K: 7,
			Strategy: sim.S2C2Factory(10, 7, g),
			Trace:    tr,
			Comm:     comm(),
			Timeout:  timeout(),
			MaxIter:  iters,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", g), f3(res.Aggregate.MeanLatency()),
			pct(res.Aggregate.MispredictionRate()))
	}
	return []*Table{t}, nil
}

// RunAblatePredictor compares end-to-end latency under different speed
// predictors, isolating how much the LSTM buys over simpler models.
func RunAblatePredictor(c Config) ([]*Table, error) {
	iters := c.iters()
	train := trace.CloudVolatile(10, 200, c.Seed+1000)
	lstmCfg := predict.DefaultLSTMConfig()
	lstmCfg.Seed = c.Seed
	lstmCfg.Epochs = 30
	models := []predict.Forecaster{
		nil, // oracle
		predict.NewLSTM(lstmCfg),
		&predict.AR1{},
		predict.LastValue{},
		&predict.Ensemble{Models: []predict.Forecaster{
			&predict.AR1{}, &predict.AR2{}, predict.LastValue{},
		}},
	}
	names := []string{"oracle (exact speeds)", "lstm(h=4)", "arima(1,0,0)", "last-value", "nws-ensemble"}
	t := &Table{
		Title:   "Ablation: speed predictor vs end-to-end S2C2 latency (volatile cloud)",
		Headers: []string{"predictor", "mean latency", "mispred rate"},
	}
	svm := svmWorkload(c, 70)
	for i, m := range models {
		if m != nil {
			if err := m.Fit(train.Speeds); err != nil {
				return nil, err
			}
		}
		tr := trace.CloudVolatile(10, iters+5, c.Seed)
		res, err := sim.RunIterative(svm, sim.JobConfig{
			N: 10, K: 7,
			Strategy:   sim.S2C2Factory(10, 7, 0),
			Forecaster: m,
			Trace:      tr,
			Comm:       comm(),
			Timeout:    timeout(),
			MaxIter:    iters,
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(names[i], f3(res.Aggregate.MeanLatency()), pct(res.Aggregate.MispredictionRate()))
	}
	return []*Table{t}, nil
}

// naiveContiguous is a deliberately broken allocator: workers get
// speed-proportional *contiguous* ranges all starting at row 0, without
// Algorithm 1's cyclic layout. It demonstrates why the cyclic interval
// structure is load-bearing.
type naiveContiguous struct {
	n, k, blockRows int
}

func (s *naiveContiguous) Name() string { return "naive-contiguous" }
func (s *naiveContiguous) NeedK() int   { return s.k }

// Plan implements the broken layout.
func (s *naiveContiguous) Plan(speeds []float64) (*sched.Plan, error) {
	alloc, err := sched.AllocateChunks(speeds, s.k, s.blockRows)
	if err != nil {
		return nil, err
	}
	p := &sched.Plan{BlockRows: s.blockRows, Assignments: make([][]coding.Range, s.n)}
	for w := 0; w < s.n; w++ {
		if alloc[w] > 0 {
			p.Assignments[w] = []coding.Range{{Lo: 0, Hi: alloc[w]}}
		}
	}
	return p, nil
}

// RunAblateLayout quantifies the cyclic-layout design choice: the naive
// contiguous allocator assigns the same leading rows to everyone, leaving
// tail rows under-covered, so rounds routinely need timeout recovery.
func RunAblateLayout(c Config) ([]*Table, error) {
	iters := c.iters()
	workload := func() workloads.Iterative { return prWorkload(c) }
	t := &Table{
		Title:   "Ablation: Algorithm-1 cyclic layout vs naive contiguous assignment",
		Headers: []string{"layout", "mean latency", "mispred (recovery) rate", "reassigned rows/iter"},
		Notes:   []string{"naive layout under-covers tail rows; every round falls back to timeout recovery"},
	}
	tr := trace.CloudStable(10, iters+5, c.Seed)
	cyc, err := sim.RunIterative(workload(), sim.JobConfig{
		N: 10, K: 7, Strategy: sim.S2C2Factory(10, 7, 0),
		Trace: tr, Comm: comm(), Timeout: timeout(), MaxIter: iters,
	})
	if err != nil {
		return nil, err
	}
	tr2 := trace.CloudStable(10, iters+5, c.Seed)
	naive, err := sim.RunIterative(workload(), sim.JobConfig{
		N: 10, K: 7,
		Strategy: func(blockRows int) sched.Strategy {
			return &naiveContiguous{n: 10, k: 7, blockRows: blockRows}
		},
		Trace: tr2, Comm: comm(), Timeout: timeout(), MaxIter: iters,
	})
	if err != nil {
		return nil, err
	}
	add := func(name string, r *sim.JobResult) {
		t.AddRow(name, f3(r.Aggregate.MeanLatency()),
			pct(r.Aggregate.MispredictionRate()),
			f1(float64(r.Aggregate.ReassignedRows)/float64(r.Aggregate.Rounds)))
	}
	add("cyclic (Algorithm 1)", cyc)
	add("naive contiguous", naive)
	return []*Table{t}, nil
}
