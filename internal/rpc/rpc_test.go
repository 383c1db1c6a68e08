package rpc

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/sched"
)

// startCluster spins up a master plus n in-process workers on loopback —
// a thin wrapper over the shared testcluster harness keeping the
// historical signature (per-worker slowdowns, 200µs per-row delay).
func startCluster(t *testing.T, n int, slowdown map[int]float64) *Master {
	t.Helper()
	return startTestCluster(t, n, clusterConfig{
		worker: func(i int) WorkerConfig {
			cfg := WorkerConfig{
				Slowdown:    slowdown[i],
				PerRowDelay: 200 * time.Microsecond,
			}
			if cfg.Slowdown == 0 {
				cfg.Slowdown = 1
			}
			return cfg
		},
	})
}

func TestTCPClusterCodedRoundTrip(t *testing.T) {
	n, k := 4, 3
	m := startCluster(t, n, nil)

	rng := rand.New(rand.NewSource(1))
	a := mat.Rand(30, 5, rng)
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.Float64()
	}
	code, _ := coding.NewMDSCode(n, k)
	enc := code.Encode(a)
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
	}
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows, Granularity: enc.BlockRows}
	want := mat.MatVec(a, x)
	for iter := 0; iter < 3; iter++ {
		plan, err := strat.Plan([]float64{1, 1, 1, 1})
		if err != nil {
			t.Fatal(err)
		}
		partials, stats, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{Iter: iter, X: x, Plan: plan, K: k, TimeoutFrac: 10.0})
		if err != nil {
			t.Fatal(err)
		}
		got, err := enc.DecodeMatVec(partials)
		if err != nil {
			t.Fatal(err)
		}
		if !mat.VecApproxEqual(got, want, 1e-8) {
			t.Fatalf("iteration %d: TCP decode mismatch", iter)
		}
		for w := 0; w < n; w++ {
			if stats.AssignedRows[w] > 0 && stats.ResponseTime[w] <= 0 {
				t.Fatalf("worker %d responded but has no response time", w)
			}
		}
	}
}

func TestTCPClusterConventionalMDSIgnoresStraggler(t *testing.T) {
	// Conventional (4,3)-MDS with one straggler: the master decodes from
	// the fastest 3 full partitions without waiting for it. Worker 0's
	// Work frame is held until the test returns, so the straggler cannot
	// answer however the host schedules the round.
	n, k := 4, 3
	release := make(chan struct{})
	m := startTestCluster(t, n, clusterConfig{
		worker: func(int) WorkerConfig { return WorkerConfig{PerRowDelay: 200 * time.Microsecond} },
		faults: map[int]*workerFault{0: {holdWork: release}},
	})
	defer close(release)

	rng := rand.New(rand.NewSource(2))
	a := mat.Rand(24, 4, rng)
	x := []float64{1, -1, 0.5, 2}
	code, _ := coding.NewMDSCode(n, k)
	enc := code.Encode(a)
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
	}
	strat := &sched.ConventionalMDS{N: n, K: k, BlockRows: enc.BlockRows}
	plan, _ := strat.Plan([]float64{1, 1, 1, 1})
	partials, stats, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{X: x, Plan: plan, K: k, TimeoutFrac: 10.0})
	if err != nil {
		t.Fatal(err)
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecApproxEqual(got, mat.MatVec(a, x), 1e-8) {
		t.Fatal("decode mismatch")
	}
	if stats.ResponseTime[0] != 0 {
		t.Fatalf("the held straggler has response time %v, want 0: the round waited for it", stats.ResponseTime[0])
	}
}

func TestTCPClusterTimeoutReassignment(t *testing.T) {
	// S2C2 plan that (wrongly) assigns work to a dead-slow worker: the
	// timeout must fire, coverage must be reassigned, decode must succeed.
	n, k := 4, 2
	m := startCluster(t, n, map[int]float64{3: 200})

	rng := rand.New(rand.NewSource(3))
	a := mat.Rand(40, 4, rng)
	x := []float64{0.5, 1, -0.25, 0.75}
	code, _ := coding.NewMDSCode(n, k)
	enc := code.Encode(a)
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
	}
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows, Granularity: enc.BlockRows}
	// Mis-prediction: planner believes all four are equally fast.
	plan, err := strat.Plan([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	partials, stats, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{X: x, Plan: plan, K: k, TimeoutFrac: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecApproxEqual(got, mat.MatVec(a, x), 1e-8) {
		t.Fatal("decode after reassignment mismatch")
	}
	if stats.Reassigned == 0 {
		t.Fatal("expected reassigned rows after the timeout")
	}
	found := false
	for _, w := range stats.TimedOut {
		if w == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("worker 3 should be listed as timed out, got %v", stats.TimedOut)
	}
}

func TestTCPMultiPhase(t *testing.T) {
	// Two phases with different matrices (the gradient-descent layout).
	n, k := 3, 2
	m := startCluster(t, n, nil)
	rng := rand.New(rand.NewSource(4))
	a := mat.Rand(12, 6, rng)
	at := mat.Transpose(a)
	code, _ := coding.NewMDSCode(n, k)
	encA := code.Encode(a)
	encAT := code.Encode(at)
	if err := Distribute(context.Background(), m.DefaultJob(), 0, encA.Parts); err != nil {
		t.Fatal(err)
	}
	if err := Distribute(context.Background(), m.DefaultJob(), 1, encAT.Parts); err != nil {
		t.Fatal(err)
	}
	w := make([]float64, 6)
	for i := range w {
		w[i] = rng.Float64()
	}
	sA := &sched.GeneralS2C2{N: n, K: k, BlockRows: encA.BlockRows, Granularity: encA.BlockRows}
	planA, _ := sA.Plan([]float64{1, 1, 1})
	pA, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{X: w, Plan: planA, K: k, TimeoutFrac: 10.0})
	if err != nil {
		t.Fatal(err)
	}
	z, err := encA.DecodeMatVec(pA)
	if err != nil {
		t.Fatal(err)
	}
	sAT := &sched.GeneralS2C2{N: n, K: k, BlockRows: encAT.BlockRows, Granularity: encAT.BlockRows}
	planAT, _ := sAT.Plan([]float64{1, 1, 1})
	pAT, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{Phase: 1, X: z, Plan: planAT, K: k, TimeoutFrac: 10.0})
	if err != nil {
		t.Fatal(err)
	}
	g, err := encAT.DecodeMatVec(pAT)
	if err != nil {
		t.Fatal(err)
	}
	want := mat.MatVec(at, mat.MatVec(a, w))
	if !mat.VecApproxEqual(g, want, 1e-7) {
		t.Fatal("two-phase TCP pipeline mismatch")
	}
}

// TestRoundStatsComputeTime: the master records the kernel time each
// worker reports next to its wall response time. Emulated straggler delay
// is not compute, so with a per-row delay every assigned worker shows
// 0 < ComputeTime < ResponseTime; and a result split into segments — each
// carrying the whole result's ComputeNanos — counts once, on its final
// segment, while a second result (reassigned extras) adds to it.
func TestRoundStatsComputeTime(t *testing.T) {
	n, k := 4, 3
	m := startCluster(t, n, nil)
	rng := rand.New(rand.NewSource(7))
	a := mat.Rand(30, 5, rng)
	code, _ := coding.NewMDSCode(n, k)
	enc := code.Encode(a)
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
	}
	plan, err := (&sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows}).Plan([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{X: make([]float64, 5), Plan: plan, K: k, TimeoutFrac: 10.0})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < n; w++ {
		if stats.AssignedRows[w] == 0 {
			continue
		}
		if c, r := stats.ComputeTime[w], stats.ResponseTime[w]; c <= 0 || c >= r {
			t.Fatalf("worker %d: compute %v, response %v; want 0 < compute < response", w, c, r)
		}
	}

	var c roundCore
	c.begin(2, 8, 1, 1)
	c.noteResult(1, []coding.Range{{Lo: 0, Hi: 3}}, time.Millisecond, 40*time.Microsecond, true)
	c.noteResult(1, []coding.Range{{Lo: 3, Hi: 6}}, 2*time.Millisecond, 40*time.Microsecond, false)
	c.noteResult(1, []coding.Range{{Lo: 6, Hi: 8}}, 3*time.Millisecond, 10*time.Microsecond, false)
	if got := c.stats.ComputeTime[1]; got != 50*time.Microsecond {
		t.Fatalf("split result + extras: ComputeTime %v, want 50µs", got)
	}
	if got := c.copyStats().ComputeTime; len(got) != 2 || got[1] != 50*time.Microsecond || got[0] != 0 {
		t.Fatalf("copyStats ComputeTime = %v", got)
	}
}
