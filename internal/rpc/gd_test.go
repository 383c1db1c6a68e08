package rpc

import (
	"context"
	"testing"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/workloads"
)

// TestTCPGradientDescentEndToEnd runs the full §6 pipeline over real TCP:
// two coded phases (X and Xᵀ), S2C2 plans from speeds observed out of
// real response times, and gradient descent to a verified model — the
// same loop cmd/s2c2-master drives.
func TestTCPGradientDescentEndToEnd(t *testing.T) {
	const (
		n, k  = 4, 3
		iters = 6
	)
	m := startCluster(t, n, map[int]float64{3: 10})

	data := workloads.SyntheticClassification(240, 24, 9)
	lr := &workloads.LogisticRegression{Data: data, LR: 0.5, Lambda: 1e-4, Tol: 0}
	matrices := lr.Matrices()

	code, err := coding.NewMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	encs := make([]*coding.EncodedMatrix, len(matrices))
	strategies := make([]*sched.GeneralS2C2, len(matrices))
	for p, mtx := range matrices {
		encs[p] = code.Encode(mtx)
		strategies[p] = &sched.GeneralS2C2{N: n, K: k, BlockRows: encs[p].BlockRows}
		if err := Distribute(context.Background(), m.DefaultJob(), p, encs[p].Parts); err != nil {
			t.Fatal(err)
		}
	}

	speeds := []float64{1, 1, 1, 1}
	state := lr.Init()
	sawTimeout := false
	for iter := 0; iter < iters; iter++ {
		outputs := make([][]float64, len(matrices))
		for p := range matrices {
			in := lr.PhaseInput(p, state, outputs[:p])
			plan, err := m.DefaultJob().PlanRound(strategies[p], speeds)
			if err != nil {
				t.Fatal(err)
			}
			partials, stats, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{Iter: iter, Phase: p, X: in, Plan: plan, K: k, TimeoutFrac: 0.15})
			if err != nil {
				t.Fatal(err)
			}
			out, err := encs[p].DecodeMatVec(partials)
			if err != nil {
				t.Fatal(err)
			}
			outputs[p] = out
			if len(stats.TimedOut) > 0 {
				sawTimeout = true
			}
			for w := 0; w < n; w++ {
				if stats.ResponseTime[w] > 0 && stats.AssignedRows[w] > 0 {
					speeds[w] = float64(stats.AssignedRows[w]) / stats.ResponseTime[w].Seconds()
				}
			}
		}
		state, _ = lr.Update(state, outputs)
	}

	// The model must match a purely local run exactly (coded GD computes
	// the same products).
	local, _ := workloads.RunLocal(
		&workloads.LogisticRegression{Data: data, LR: 0.5, Lambda: 1e-4, Tol: 0}, iters)
	if !mat.VecApproxEqual(state, local, 1e-6) {
		t.Fatal("TCP gradient descent diverged from local ground truth")
	}
	if !sawTimeout {
		t.Log("note: the 10x straggler never tripped the timeout in this run (tight loop timing); acceptable")
	}
	// After observing real response times, the straggler's share must have
	// shrunk well below an equal split.
	plan, err := strategies[0].Plan(speeds)
	if err != nil {
		t.Fatal(err)
	}
	equal := encs[0].BlockRows * k / n
	if plan.RowsFor(3) >= equal {
		t.Fatalf("straggler still assigned %d rows (equal split %d) after speed observation",
			plan.RowsFor(3), equal)
	}
}

func TestTCPStaleResultsIgnored(t *testing.T) {
	// A late result from an abandoned round must not corrupt later rounds.
	n, k := 3, 2
	m := startCluster(t, n, nil)
	a := mat.NewFromRows([][]float64{{1, 0}, {0, 1}, {2, 1}, {1, 2}})
	code, _ := coding.NewMDSCode(n, k)
	enc := code.Encode(a)
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
	}
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows, Granularity: enc.BlockRows}
	plan, _ := strat.Plan([]float64{1, 1, 1})
	for iter := 0; iter < 5; iter++ {
		x := []float64{float64(iter + 1), float64(-iter)}
		partials, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{Iter: iter, X: x, Plan: plan, K: k, TimeoutFrac: 5.0})
		if err != nil {
			t.Fatal(err)
		}
		got, err := enc.DecodeMatVec(partials)
		if err != nil {
			t.Fatal(err)
		}
		want := mat.MatVec(a, x)
		if !mat.VecApproxEqual(got, want, 1e-9) {
			t.Fatalf("iteration %d decode mismatch (stale result leakage?)", iter)
		}
	}
}

func TestTCPWorkerShutdown(t *testing.T) {
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		w, err := NewWorker(WorkerConfig{MasterAddr: m.Addr()})
		if err != nil {
			done <- err
			return
		}
		done <- w.Run()
	}()
	if err := m.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	m.Shutdown()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("worker should exit cleanly on shutdown, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not exit after shutdown")
	}
}

func TestRunRoundRequiresPartitions(t *testing.T) {
	m := startCluster(t, 2, nil)
	plan := &sched.Plan{BlockRows: 4, Assignments: [][]coding.Range{{{Lo: 0, Hi: 4}}, {{Lo: 0, Hi: 4}}}}
	if _, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{Phase: 9, X: []float64{1}, Plan: plan, K: 2, TimeoutFrac: 1.0}); err == nil {
		t.Fatal("round on an undistributed phase must fail")
	}
}

func TestRunRoundRequiresEnoughActiveWorkers(t *testing.T) {
	m := startCluster(t, 3, nil)
	a := mat.NewFromRows([][]float64{{1}, {2}, {3}, {4}})
	code, _ := coding.NewMDSCode(3, 2)
	enc := code.Encode(a)
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
	}
	// A plan that only activates one worker cannot decode with k=2.
	plan := &sched.Plan{BlockRows: enc.BlockRows, Assignments: [][]coding.Range{
		{{Lo: 0, Hi: enc.BlockRows}}, nil, nil,
	}}
	if _, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{X: []float64{1}, Plan: plan, K: 2, TimeoutFrac: 1.0}); err == nil {
		t.Fatal("must reject plans with fewer than k active workers")
	}
}
