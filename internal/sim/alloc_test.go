package sim

import (
	"math/rand"
	"testing"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/trace"
)

// roundCluster builds the sim-paper logistic-regression phase-0 shape:
// n = 12, k = 6, general S2C2 over a 480×60 matrix, kernels inline.
func roundCluster(tb testing.TB, tr *trace.Trace, fc predict.Forecaster) (*CodedCluster, []float64) {
	tb.Helper()
	const n, k = 12, 6
	rng := rand.New(rand.NewSource(7))
	code, err := coding.NewMDSCode(n, k)
	if err != nil {
		tb.Fatal(err)
	}
	code.SetExec(kernel.Exec{MaxFan: 1})
	enc := code.Encode(mat.Rand(480, 60, rng))
	return &CodedCluster{
		Enc:        enc,
		Strategy:   &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows},
		Forecaster: fc,
		Trace:      tr,
		Comm:       DefaultComm(),
		Timeout:    DefaultTimeout(),
		Numeric:    true,
	}, randTestVec(60, rng)
}

func TestRunIterationZeroAllocsSteadyState(t *testing.T) {
	// Constant speeds, known to the planner: every round repeats the first
	// one's plan and worker set, so nothing — not the Accounting, not a cached
	// factorization — is left to allocate.
	speeds := make([][]float64, 12)
	for w := range speeds {
		speeds[w] = []float64{1 + 0.1*float64(w%4)}
	}
	c, x := roundCluster(t, &trace.Trace{Speeds: speeds}, nil)
	iter := 0
	run := func() {
		if _, _, err := c.RunIteration(iter, x); err != nil {
			t.Fatal(err)
		}
		iter++
	}
	run()
	if a := testing.AllocsPerRun(50, run); a != 0 {
		t.Fatalf("RunIteration allocates %v objects per round after the first, want 0", a)
	}
	if c.speeds.tracker != nil {
		t.Fatal("an oracle-mode cluster keeps a speed history nobody reads")
	}
}

// TestRunIterationZeroAllocsUnderChurn is the steady-state pin with the
// worker sets moving: oracle speeds drawn afresh every iteration rotate
// the plan's ranges and every band's decode set, round after round, and
// still nothing is left to allocate once the first round has sized the
// scratch.
func TestRunIterationZeroAllocsUnderChurn(t *testing.T) {
	const n, steps = 12, 64
	rng := rand.New(rand.NewSource(8))
	speeds := make([][]float64, n)
	for w := range speeds {
		speeds[w] = make([]float64, steps)
		for i := range speeds[w] {
			speeds[w][i] = 0.5 + rng.Float64()
		}
	}
	c, x := roundCluster(t, &trace.Trace{Speeds: speeds}, nil)
	iter := 0
	run := func() {
		if _, _, err := c.RunIteration(iter, x); err != nil {
			t.Fatal(err)
		}
		iter++
	}
	run()
	if a := testing.AllocsPerRun(steps-2, run); a != 0 {
		t.Fatalf("RunIteration allocates %v objects per round under worker-set churn, want 0", a)
	}
}

// TestPolyRoundZeroAllocsUnderChurn is the churn pin for the Hessian
// workload: a Numeric polynomial-coded (12,3,3) round, on oracle speeds
// drawn afresh every iteration, decodes every band from whichever 9-set
// its plan gives it and allocates nothing once the first round has sized
// the scratch.
func TestPolyRoundZeroAllocsUnderChurn(t *testing.T) {
	const n, steps = 12, 64
	rng := rand.New(rand.NewSource(10))
	speeds := make([][]float64, n)
	for w := range speeds {
		speeds[w] = make([]float64, steps)
		for i := range speeds[w] {
			speeds[w][i] = 0.5 + rng.Float64()
		}
	}
	code, err := coding.NewPolyCode(n, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	code.SetExec(kernel.Exec{MaxFan: 1})
	enc, err := code.EncodeHessian(mat.Rand(60, 36, rng))
	if err != nil {
		t.Fatal(err)
	}
	c := &PolyCluster{
		Enc:      enc,
		Strategy: &sched.GeneralS2C2{N: n, K: 9, BlockRows: enc.BlockColsA, Granularity: enc.BlockColsA},
		Trace:    &trace.Trace{Speeds: speeds},
		Comm:     DefaultComm(),
		Timeout:  DefaultTimeout(),
		Numeric:  true,
	}
	d := randTestVec(60, rng)
	iter := 0
	run := func() {
		if _, _, err := c.RunIteration(iter, d); err != nil {
			t.Fatal(err)
		}
		iter++
	}
	run()
	if a := testing.AllocsPerRun(steps-2, run); a != 0 {
		t.Fatalf("Numeric PolyCluster round allocates %v objects per round under worker-set churn, want 0", a)
	}
}

// TestBaselineRoundsZeroAllocs is the steady-state pin for the two
// baselines: on speeds drawn afresh every iteration, which keep
// replication speculating and over-decomposition migrating, a round
// allocates nothing once the first has sized the scratch, timing-only or
// Numeric.
func TestBaselineRoundsZeroAllocs(t *testing.T) {
	const n, steps = 12, 64
	rng := rand.New(rand.NewSource(9))
	speeds := make([][]float64, n)
	for w := range speeds {
		speeds[w] = make([]float64, steps)
		for i := range speeds[w] {
			speeds[w][i] = 0.2 + rng.Float64()
		}
	}
	tr := &trace.Trace{Speeds: speeds}
	a := mat.Rand(600, 50, rng) // 48 over-decomposed partitions pad it to 624 rows
	x := randTestVec(50, rng)
	for _, numeric := range []bool{false, true} {
		for _, c := range []struct {
			name string
			cl   Cluster
		}{
			{"uncoded replication", &UncodedReplication{A: a, Trace: tr, Comm: DefaultComm(), Numeric: numeric}},
			{"over-decomposition", &OverDecomposition{A: a, Trace: tr, Comm: DefaultComm(), Numeric: numeric}},
		} {
			iter := 0
			run := func() {
				if _, _, err := c.cl.RunIteration(iter, x); err != nil {
					t.Fatal(err)
				}
				iter++
			}
			run()
			if allocs := testing.AllocsPerRun(steps-2, run); allocs != 0 {
				t.Errorf("%s (Numeric %v) allocates %v objects per round after the first, want 0", c.name, numeric, allocs)
			}
		}
	}
}

// TestReuseBuffersRecyclesRound checks that a coded round is recycled: the
// next RunIteration hands back the same Accounting, overwritten.
func TestReuseBuffersRecyclesRound(t *testing.T) {
	c, x := roundCluster(t, trace.ControlledCluster(12, 2, 8, 5), nil)
	first, _, err := c.RunIteration(0, x)
	if err != nil {
		t.Fatal(err)
	}
	second, _, err := c.RunIteration(1, x)
	if err != nil {
		t.Fatal(err)
	}
	if first != second || second.Iter != 1 {
		t.Fatalf("RunIteration must hand back the one recycled Accounting (iter %d)", second.Iter)
	}
}

// BenchmarkSimRound is one simulated coded round at the sim-paper shape,
// planned from an LSTM's forecasts on the volatile cloud trace — predict,
// plan, timing model, worker kernels, decode.
func BenchmarkSimRound(b *testing.B) {
	const steps = 15
	cfg := predict.DefaultLSTMConfig()
	cfg.Epochs = 5
	fc := predict.NewLSTM(cfg)
	if err := fc.Fit(trace.CloudVolatile(12, 120, 1001).Speeds); err != nil {
		b.Fatal(err)
	}
	tr := trace.CloudVolatile(12, steps, 11)
	c, x := roundCluster(b, tr, fc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%steps == 0 {
			c.speeds = speedSource{} // a new job: histories start empty
		}
		if _, _, err := c.RunIteration(i%steps, x); err != nil {
			b.Fatal(err)
		}
	}
}
