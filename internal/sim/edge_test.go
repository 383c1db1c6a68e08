package sim

import (
	"math/rand"
	"testing"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/trace"
	"github.com/coded-computing/s2c2/internal/workloads"
)

func TestBasicS2C2InSimMatchesPaperShare(t *testing.T) {
	// Basic S2C2 with s live workers assigns each exactly k/s of its
	// partition (§4.1: D/s rows of the original D).
	n, k := 6, 4
	tr := trace.ControlledCluster(n, 1, 10, 61)
	rng := rand.New(rand.NewSource(61))
	a := mat.Rand(120, 32, rng)
	code, _ := coding.NewMDSCode(n, k)
	enc := code.Encode(a)
	strat := &sched.BasicS2C2{N: n, K: k, BlockRows: enc.BlockRows, Granularity: enc.BlockRows}
	c := &CodedCluster{Enc: enc, Strategy: strat, Trace: tr, Comm: DefaultComm(), Timeout: DefaultTimeout()}
	r, _, err := c.RunIteration(0, randTestVec(32, rng))
	if err != nil {
		t.Fatal(err)
	}
	live := n - 1
	wantRows := enc.BlockRows * k / live
	for w := 1; w < n; w++ {
		got := r.ComputedRows[w]
		if got < wantRows-1 || got > wantRows+1 {
			t.Fatalf("worker %d assigned %d rows, want ~%d (= blockRows·k/s)", w, got, wantRows)
		}
	}
	if r.ComputedRows[0] != 0 {
		t.Fatalf("straggler assigned %d rows, want 0", r.ComputedRows[0])
	}
}

func TestRunIterativeRejectsBadCode(t *testing.T) {
	data := workloads.SyntheticClassification(40, 6, 62)
	lr := &workloads.LogisticRegression{Data: data, LR: 0.1}
	_, err := RunIterative(lr, JobConfig{
		N: 4, K: 9, // invalid: k > n
		Strategy: MDSFactory(4, 9),
		Trace:    trace.CloudStable(4, 10, 62),
		Comm:     DefaultComm(),
		Timeout:  DefaultTimeout(),
		MaxIter:  2,
	})
	if err == nil {
		t.Fatal("k > n must fail")
	}
}

func TestRunIterativeConvergesEarly(t *testing.T) {
	// A workload that converges must stop the driver before MaxIter.
	g := workloads.RingGraph(24)
	pr := &workloads.PageRank{Graph: g, Damping: 0.85, Tol: 1e-8}
	res, err := RunIterative(pr, JobConfig{
		N: 4, K: 3,
		Strategy: S2C2Factory(4, 3, 0),
		Trace:    trace.ControlledCluster(4, 0, 300, 63),
		Comm:     DefaultComm(),
		Timeout:  DefaultTimeout(),
		Numeric:  true,
		MaxIter:  250,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations >= 250 {
		t.Fatal("PageRank on a ring should converge well before 250 iterations")
	}
}

func TestUncodedNumericDisabled(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	a := mat.Rand(24, 4, rng)
	u := &UncodedReplication{A: a, Trace: trace.ControlledCluster(6, 0, 5, 64), Comm: DefaultComm()}
	_, y, err := u.RunIteration(0, randTestVec(4, rng))
	if err != nil {
		t.Fatal(err)
	}
	if y != nil {
		t.Fatal("Numeric=false must not compute a result")
	}
}

func TestOverDecompositionProportionalCounts(t *testing.T) {
	counts := proportionalCounts(make([]int, 3), make([]remainder, 3), []float64{2, 1, 1}, 8)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 8 {
		t.Fatalf("counts %v do not sum to 8", counts)
	}
	if counts[0] != 4 {
		t.Fatalf("weight-2 worker got %d of 8, want 4", counts[0])
	}
	// Degenerate weights: still place everything.
	counts = proportionalCounts(make([]int, 2), make([]remainder, 2), []float64{0, 0}, 5)
	if counts[0]+counts[1] != 5 {
		t.Fatalf("zero weights: counts %v", counts)
	}
}

func TestCodedClusterBootstrapEqualSpeeds(t *testing.T) {
	// With a forecaster and empty history, the first round must assume
	// equal speeds (§6.2).
	n, k := 4, 3
	rng := rand.New(rand.NewSource(65))
	a := mat.Rand(48, 8, rng)
	code, _ := coding.NewMDSCode(n, k)
	enc := code.Encode(a)
	c := &CodedCluster{
		Enc:        enc,
		Strategy:   &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows},
		Forecaster: constantForecaster{0.5},
		Trace:      trace.ControlledCluster(n, 0, 5, 65),
		Comm:       DefaultComm(),
		Timeout:    DefaultTimeout(),
	}
	speeds := c.speeds.planInto(make([]float64, n), c.Forecaster, c.Trace, 0)
	for _, s := range speeds {
		if s != 1 {
			t.Fatalf("bootstrap speeds %v, want all 1", speeds)
		}
	}
	if _, _, err := c.RunIteration(0, randTestVec(8, rng)); err != nil {
		t.Fatal(err)
	}
	// After one observation the forecaster takes over.
	speeds = c.speeds.planInto(make([]float64, n), c.Forecaster, c.Trace, 1)
	for _, s := range speeds {
		if s != 0.5 {
			t.Fatalf("post-bootstrap speeds %v, want forecaster's 0.5", speeds)
		}
	}
}
