package sim

import (
	"math/rand"
	"testing"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/trace"
)

func buildCluster(t *testing.T, n, k, rows int, tr *trace.Trace, strat sched.Strategy, fc predict.Forecaster) (*CodedCluster, *mat.Dense, []float64, []float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	a := mat.Rand(rows, 96, rng)
	x := make([]float64, 96)
	for i := range x {
		x[i] = rng.Float64()
	}
	code, err := coding.NewMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	enc := code.Encode(a)
	want := mat.MatVec(a, x)
	return &CodedCluster{
		Enc:        enc,
		Strategy:   strat,
		Forecaster: fc,
		Trace:      tr,
		Comm:       DefaultComm(),
		Timeout:    DefaultTimeout(),
		Numeric:    true,
	}, a, x, want
}

func TestCodedClusterS2C2OracleDecodesCorrectly(t *testing.T) {
	n, k := 6, 4
	tr := trace.ControlledCluster(n, 1, 50, 1)
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: mat.PaddedRows(60, k) / k, Granularity: 30}
	c, _, x, want := buildCluster(t, n, k, 60, tr, strat, nil)
	for iter := 0; iter < 5; iter++ {
		r, y, err := c.RunIteration(iter, x)
		if err != nil {
			t.Fatal(err)
		}
		if !mat.VecApproxEqual(y, want, 1e-6) {
			t.Fatalf("iteration %d: decoded result mismatch", iter)
		}
		if r.Latency <= 0 {
			t.Fatal("latency must be positive")
		}
	}
}

func TestCodedClusterConventionalMDSWaste(t *testing.T) {
	// Conventional (6,4)-MDS with equal speeds: the 2 slowest responders
	// are ignored every round → cluster waste ≈ 2/6.
	n, k := 6, 4
	tr := trace.ControlledCluster(n, 0, 50, 2)
	blockRows := mat.PaddedRows(60, k) / k
	strat := &sched.ConventionalMDS{N: n, K: k, BlockRows: blockRows}
	c, _, x, want := buildCluster(t, n, k, 60, tr, strat, nil)
	agg := &Aggregate{}
	for iter := 0; iter < 20; iter++ {
		r, y, err := c.RunIteration(iter, x)
		if err != nil {
			t.Fatal(err)
		}
		if !mat.VecApproxEqual(y, want, 1e-6) {
			t.Fatalf("iteration %d: decode mismatch", iter)
		}
		agg.Add(r)
	}
	wf := agg.TotalWastedFraction()
	if wf < 0.2 || wf > 0.45 {
		t.Fatalf("conventional MDS waste = %.3f want ≈ 1/3", wf)
	}
}

func TestS2C2FasterThanConventionalWithNoStragglers(t *testing.T) {
	// The core claim (Figure 8): with zero stragglers and accurate speeds,
	// S2C2(n,k) beats conventional (n,k)-MDS by about (n−k)/k.
	n, k := 10, 7
	tr := trace.ControlledCluster(n, 0, 40, 3)
	blockRows := mat.PaddedRows(140, k) / k
	mds := &sched.ConventionalMDS{N: n, K: k, BlockRows: blockRows}
	s2c2 := &sched.GeneralS2C2{N: n, K: k, BlockRows: blockRows, Granularity: 70}

	cm, _, x, _ := buildCluster(t, n, k, 140, tr, mds, nil)
	cs, _, _, _ := buildCluster(t, n, k, 140, tr.Clone(), s2c2, nil)

	aggM, aggS := &Aggregate{}, &Aggregate{}
	for iter := 0; iter < 15; iter++ {
		rm, _, err := cm.RunIteration(iter, x)
		if err != nil {
			t.Fatal(err)
		}
		rs, _, err := cs.RunIteration(iter, x)
		if err != nil {
			t.Fatal(err)
		}
		aggM.Add(rm)
		aggS.Add(rs)
	}
	speedup := aggM.MeanLatency() / aggS.MeanLatency()
	// Ideal is n/k ≈ 1.43; comm overheads shave a little off.
	if speedup < 1.2 {
		t.Fatalf("S2C2 speedup %.3f too small (want ≳ 1.2)", speedup)
	}
	if aggS.TotalWastedFraction() > 0.01 {
		t.Fatalf("S2C2 with oracle speeds should waste ~nothing, got %.3f", aggS.TotalWastedFraction())
	}
}

func TestCodedClusterToleratesStragglers(t *testing.T) {
	// With n−k stragglers, S2C2 must still decode correctly and its
	// latency must stay bounded by the non-straggler speeds.
	n, k := 6, 4
	tr := trace.ControlledCluster(n, 2, 30, 4)
	blockRows := mat.PaddedRows(60, k) / k
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: blockRows, Granularity: 60}
	c, _, x, want := buildCluster(t, n, k, 60, tr, strat, nil)
	for iter := 0; iter < 10; iter++ {
		_, y, err := c.RunIteration(iter, x)
		if err != nil {
			t.Fatal(err)
		}
		if !mat.VecApproxEqual(y, want, 1e-6) {
			t.Fatalf("iteration %d: decode mismatch under stragglers", iter)
		}
	}
}

func TestCodedClusterMispredictionRecovery(t *testing.T) {
	// Force a mis-prediction: a predictor that believes all workers are
	// equally fast while worker 0 is actually 50× slower. The timeout must
	// fire, work must be reassigned, and the decode must still be right.
	n, k := 5, 3
	tr := trace.ControlledCluster(n, 0, 30, 5)
	tr.ApplyStragglers(trace.StragglerSpec{Worker: 0, Factor: 50})
	blockRows := mat.PaddedRows(30, k) / k
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: blockRows, Granularity: 30}
	c, _, x, want := buildCluster(t, n, k, 30, tr, strat, constantForecaster{1.0})
	r, y, err := c.RunIteration(0, x)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Mispredicted {
		t.Fatal("expected the timeout to fire")
	}
	if r.ReassignedRows == 0 {
		t.Fatal("expected reassigned rows")
	}
	if !mat.VecApproxEqual(y, want, 1e-6) {
		t.Fatal("decode after recovery mismatch")
	}
	if len(r.TimedOut) == 0 || r.TimedOut[0] != 0 {
		t.Fatalf("worker 0 should have timed out, got %v", r.TimedOut)
	}
}

// constantForecaster always predicts the same speed for every worker.
type constantForecaster struct{ v float64 }

func (c constantForecaster) Name() string              { return "constant" }
func (c constantForecaster) Fit([][]float64) error     { return nil }
func (c constantForecaster) Predict([]float64) float64 { return c.v }

func TestCodedClusterForecasterLoop(t *testing.T) {
	// With an AR(1) forecaster fitted online from observations, iterations
	// after the first should assign less work to the straggler.
	n, k := 6, 4
	tr := trace.ControlledCluster(n, 1, 40, 6)
	blockRows := mat.PaddedRows(480, k) / k
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: blockRows, Granularity: 60}
	ar1 := &predict.AR1{}
	// Pre-fit on similar traces (the paper trains offline on measured data).
	fitTrace := trace.ControlledCluster(n, 1, 100, 7)
	if err := ar1.Fit(fitTrace.Speeds); err != nil {
		t.Fatal(err)
	}
	c, _, x, want := buildCluster(t, n, k, 480, tr, strat, ar1)
	var firstLatency, laterLatency float64
	for iter := 0; iter < 10; iter++ {
		r, y, err := c.RunIteration(iter, x)
		if err != nil {
			t.Fatal(err)
		}
		if !mat.VecApproxEqual(y, want, 1e-6) {
			t.Fatalf("iteration %d decode mismatch", iter)
		}
		if iter == 0 {
			firstLatency = r.Latency
		}
		if iter == 9 {
			laterLatency = r.Latency
		}
	}
	// After observing the straggler, the planner shifts work away from it,
	// so steady-state latency beats the uninformed first round.
	if laterLatency >= firstLatency {
		t.Fatalf("adaptive iteration (%.4f) should beat bootstrap (%.4f)", laterLatency, firstLatency)
	}
}

func TestAggregateAccounting(t *testing.T) {
	a := &Aggregate{}
	a.Add(&Accounting{Latency: 2, ComputedRows: []int{10, 10}, UsedRows: []int{10, 5}, Mispredicted: true, ReassignedRows: 3, BytesMoved: 100})
	a.Add(&Accounting{Latency: 4, ComputedRows: []int{10, 10}, UsedRows: []int{10, 10}, BytesMoved: 50})
	if a.MeanLatency() != 3 {
		t.Fatalf("MeanLatency = %v", a.MeanLatency())
	}
	if a.MispredictionRate() != 0.5 {
		t.Fatalf("MispredictionRate = %v", a.MispredictionRate())
	}
	if a.WastedFraction(1) != 0.25 {
		t.Fatalf("WastedFraction = %v", a.WastedFraction(1))
	}
	if a.TotalWastedFraction() != 5.0/40.0 {
		t.Fatalf("TotalWastedFraction = %v", a.TotalWastedFraction())
	}
	if a.ReassignedRows != 3 || a.BytesMoved != 150 {
		t.Fatal("aggregation sums wrong")
	}
}
