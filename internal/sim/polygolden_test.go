package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/trace"
)

// TestPolyClusterGolden pins PolyCluster's timing model to the values it
// produced before the bilinear and mat-vec clusters shared one round
// model (commit 3f78513). On a volatile trace with a 12× straggler, a
// constant forecaster sends every general-S2C2 round down the
// reassignment path, and the oracle and conventional cases pin the
// coverage walk. Neither planning source reads observed speeds, so the
// pins do not depend on them. BytesMoved is not pinned: the shared model
// counts traffic by one rule for both clusters.
func TestPolyClusterGolden(t *testing.T) {
	const n, iters = 12, 15
	rng := rand.New(rand.NewSource(41))
	a := mat.Rand(60, 30, rng)
	d := randTestVec(60, rng)
	want := mat.ATDiagA(a, d)
	code, err := coding.NewPolyCode(n, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := code.EncodeHessian(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name           string
		strategy       sched.Strategy
		oracle         bool
		latencyBits    uint64
		mispredictions int
		reassigned     int
		computed, used []int
	}{
		{"general-s2c2", &sched.GeneralS2C2{N: n, K: 9, BlockRows: enc.BlockColsA, Granularity: enc.BlockColsA}, false,
			0x3ff4ba35f7d4d2f1, 15, 328,
			[]int{146, 150, 150, 120, 150, 144, 106, 131, 148, 149, 148, 136},
			[]int{130, 150, 150, 0, 150, 120, 8, 89, 148, 149, 148, 108}},
		{"general-s2c2-oracle", &sched.GeneralS2C2{N: n, K: 9, BlockRows: enc.BlockColsA, Granularity: enc.BlockColsA}, true,
			0x3fe9673ed234e860, 0, 0,
			[]int{139, 149, 141, 11, 147, 115, 55, 96, 134, 138, 137, 88},
			[]int{139, 149, 141, 11, 147, 115, 55, 96, 134, 138, 137, 88}},
		{"conventional", &sched.ConventionalMDS{N: n, K: 9, BlockRows: enc.BlockColsA}, false,
			0x3ff4325eee3f654d, 0, 0,
			[]int{150, 150, 150, 150, 150, 150, 150, 150, 150, 150, 150, 150},
			[]int{150, 150, 150, 0, 150, 130, 0, 90, 150, 150, 130, 100}},
	} {
		tr := trace.CloudVolatile(n, iters, 43).ApplyStragglers(trace.StragglerSpec{Worker: 3, Factor: 12})
		pc := &PolyCluster{Enc: enc, Strategy: g.strategy, Forecaster: constantForecaster{1}, Trace: tr,
			Comm: DefaultComm(), Timeout: DefaultTimeout(), Numeric: true}
		if g.oracle {
			pc.Forecaster = nil
		}
		latency := 0.0
		mispredictions, reassigned := 0, 0
		computed, used := make([]int, n), make([]int, n)
		for iter := 0; iter < iters; iter++ {
			r, y, err := pc.RunIteration(iter, d)
			if err != nil {
				t.Fatalf("%s: iteration %d: %v", g.name, iter, err)
			}
			if !y.ApproxEqual(want, 1e-6) {
				t.Fatalf("%s: iteration %d: decode mismatch", g.name, iter)
			}
			latency += r.Latency
			if r.Mispredicted {
				mispredictions++
			}
			reassigned += r.ReassignedRows
			for w := range computed {
				computed[w] += r.ComputedRows[w]
				used[w] += r.UsedRows[w]
			}
		}
		if got := math.Float64bits(latency); got != g.latencyBits {
			t.Errorf("%s: total latency %v (%#x), want bits %#x", g.name, latency, got, g.latencyBits)
		}
		if mispredictions != g.mispredictions || reassigned != g.reassigned {
			t.Errorf("%s: %d mispredictions, %d reassigned rows; want %d, %d",
				g.name, mispredictions, reassigned, g.mispredictions, g.reassigned)
		}
		if !slices.Equal(computed, g.computed) || !slices.Equal(used, g.used) {
			t.Errorf("%s: per-worker computed %v used %v; want %v, %v", g.name, computed, used, g.computed, g.used)
		}
	}
}
