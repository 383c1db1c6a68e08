package rpc

import (
	"context"
	"math/rand"
	"runtime/debug"
	"testing"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/sched"
)

// TestCodedPhaseObservationRule pins the speed each worker is planned
// from after a round: its assigned rows times the row width over its
// response time when it answered, its previous value when it was silent
// or idle, and 1 before it was ever observed.
func TestCodedPhaseObservationRule(t *testing.T) {
	enc, _, _ := gatherFixture(t)
	const n, k = 10, 8
	p := NewCodedPhase((&Master{}).DefaultJob(), 0, enc, &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows},
		0.15, predict.NewTracker(predict.LastValue{}, n))
	rate := func(rows int, resp time.Duration) float64 { return float64(rows*enc.Cols) / resp.Seconds() }
	speeds := func() []float64 {
		t.Helper()
		if _, err := p.plan(); err != nil {
			t.Fatal(err)
		}
		return p.speeds
	}
	for w, v := range speeds() {
		if v != 1 {
			t.Fatalf("worker %d planned from %v before any observation, want 1", w, v)
		}
	}
	// Round A: workers 0 and 3..9 answer; worker 1 was assigned rows but
	// stayed silent; worker 2 had no rows.
	a := &RoundStats{ResponseTime: make([]time.Duration, n), AssignedRows: make([]int, n)}
	for w := range a.AssignedRows {
		a.AssignedRows[w] = 10 + w
		a.ResponseTime[w] = time.Duration(w+1) * time.Millisecond
	}
	a.ResponseTime[1] = 0
	a.AssignedRows[2], a.ResponseTime[2] = 0, 0
	p.observe(a, enc.Cols)
	want := make([]float64, n)
	for w := range want {
		want[w] = rate(a.AssignedRows[w], a.ResponseTime[w])
	}
	want[1], want[2] = 1, 1
	for w, v := range speeds() {
		if v != want[w] {
			t.Fatalf("after round A worker %d planned from %v, want %v", w, v, want[w])
		}
	}
	// Round B: worker 0 goes silent (carries its round-A rate), worker 1
	// answers for the first time, worker 2 stays idle (still 1).
	b := &RoundStats{ResponseTime: make([]time.Duration, n), AssignedRows: make([]int, n)}
	for w := range b.AssignedRows {
		b.AssignedRows[w] = 20
		b.ResponseTime[w] = 3 * time.Millisecond
	}
	b.ResponseTime[0] = 0
	b.AssignedRows[2] = 0
	p.observe(b, enc.Cols)
	for w := range want {
		if w != 0 && w != 2 {
			want[w] = rate(20, 3*time.Millisecond)
		}
	}
	for w, v := range speeds() {
		if v != want[w] {
			t.Fatalf("after round B worker %d planned from %v, want %v", w, v, want[w])
		}
	}
}

// TestCodedPhaseGFAdaptsToStraggler drives 20 exact rounds through the
// step on a cluster with one 5× straggler: every decode matches the local
// field compute bit for bit, and once the straggler has been observed it
// is planned fewer rows than its round-0 share.
func TestCodedPhaseGFAdaptsToStraggler(t *testing.T) {
	const n, k, rows, cols, straggler = 4, 3, 120, 16, 3
	m := startCluster(t, n, map[int]float64{straggler: 5})
	rng := rand.New(rand.NewSource(50))
	a := gf.NewMatrixFromData(rows, cols, randElems(rng, rows*cols))
	code, err := coding.NewGFMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := code.Encode(rows, cols, a.Data())
	if err != nil {
		t.Fatal(err)
	}
	ctx, job := context.Background(), m.DefaultJob()
	if err := Distribute(ctx, job, 0, enc.Parts); err != nil {
		t.Fatal(err)
	}
	// A grace fraction of 10 lets the straggler answer round 0, so its
	// speed is observed rather than carried from the bootstrap.
	p := NewCodedPhase(job, 0, enc, &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows},
		10, predict.NewTracker(predict.LastValue{}, n))
	want := make([]gf.Elem, rows)
	var share0 int
	for iter := 0; iter < 20; iter++ {
		x := randElems(rng, cols)
		a.MulVecInto(want, x)
		got, stats, err := p.RunIteration(ctx, iter, x)
		if err != nil {
			t.Fatalf("round %d: %v", iter, err)
		}
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("round %d row %d: distributed %d != local %d", iter, r, got[r], want[r])
			}
		}
		switch {
		case iter == 0:
			share0 = stats.AssignedRows[straggler]
			if stats.ResponseTime[straggler] == 0 {
				t.Fatal("the straggler did not answer round 0")
			}
		case stats.AssignedRows[straggler] >= share0:
			t.Fatalf("round %d planned the straggler %d rows, not below its round-0 share %d",
				iter, stats.AssignedRows[straggler], share0)
		}
	}
}

// TestCodedPhaseZeroAllocsSteadyState pins the step's own work beside
// the round pins: predicting and planning, gathering a fixture round
// under ReuseRound, decoding into the reused product and observing
// allocate nothing in steady state, for both element types. Run's
// transport in between is pinned by the wire round tests.
func TestCodedPhaseZeroAllocsSteadyState(t *testing.T) {
	const n, k = 10, 8
	m := &Master{cfg: MasterConfig{ReuseRound: true}}
	j := m.DefaultJob()

	enc, results, want := gatherFixture(t)
	p := NewCodedPhase(j, 0, enc, &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows},
		0.15, predict.NewTracker(predict.LastValue{}, n))
	if a := stepAllocs(t, p, &j.float.round, results, enc.BlockRows, k, enc.Cols); a != 0 {
		t.Fatalf("50 steady-state float64 steps allocate %v times, want 0", a)
	}
	for r, v := range want {
		if d := p.out[r] - v; d > 1e-8 || d < -1e-8 {
			t.Fatalf("float64 step row %d: %v, want %v", r, p.out[r], v)
		}
	}

	genc, gresults, _, gwant := gfGatherFixture(t)
	gp := NewCodedPhase(j, 0, genc, &sched.GeneralS2C2{N: n, K: k, BlockRows: genc.BlockRows},
		0.15, predict.NewTracker(predict.LastValue{}, n))
	if a := stepAllocs(t, gp, &j.exact.round, gresults, genc.BlockRows, k, genc.Cols); a != 0 {
		t.Fatalf("50 steady-state GF steps allocate %v times, want 0", a)
	}
	for r, v := range gwant {
		if gp.out[r] != v {
			t.Fatalf("GF step row %d: %d, want %d", r, gp.out[r], v)
		}
	}
}

// stepAllocs runs p's rounds around a gathered fixture — plan, gather
// results in ws, finish — and returns the allocations of 50 steady-state
// rounds (steadyAllocs).
func stepAllocs[T coding.Element](t *testing.T, p *CodedPhase[T], ws *roundWorkspace[T], results []*ResultOf[T], blockRows, k, cols int) float64 {
	const runs = 50
	round := func() {
		if _, err := p.plan(); err != nil {
			t.Fatal(err)
		}
		ws.begin(len(p.speeds), blockRows, k, 1)
		for i, r := range results {
			ws.Assign(r.Worker, r.Ranges)
			if err := ws.addResult(r, time.Duration(i+1)*time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		partials, stats, err := ws.finish(true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.finish(partials, stats, cols); err != nil {
			t.Fatal(err)
		}
	}
	return steadyAllocs(runs, round)
}

// steadyAllocs counts every allocation of one run of rounds calls of
// round, after AllocsPerRun's warm-up run of as many: AllocsPerRun's
// per-run mean would floor a slice that regrows once in 50 rounds to 0.
// The collector is off meanwhile, because a cycle wakes runtime
// goroutines (the unique package's map cleanup) whose allocations count
// too.
func steadyAllocs(rounds int, round func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(1, func() {
		for range rounds {
			round()
		}
	})
}
