package rpc

// soak_test.go is the chaos lifecycle soak: hundreds of mixed
// float64/GF(2³¹−1), single/batched rounds over one cluster while workers
// are killed (between rounds and mid-round), replaced via the admission
// pool, and re-streamed their slots' partitions. Every
// completed round must decode bit-exactly against a local recompute, and
// Shutdown must leave no goroutines behind. Gated behind -short so the
// default tier-1 run stays fast; CI runs it in the chaos lane under
// -race.

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/sched"
)

func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		n, k      = 5, 3
		rows      = 48
		cols      = 6
		batchW    = 2
		rounds    = 240
		killEvery = 12
	)
	baseline := runtime.NumGoroutine()

	rng := rand.New(rand.NewSource(777))
	// Every worker is configured alike; spare replacements still draw an
	// index from rng, which keeps the seeded kill schedule where it is.
	wcfg := func(i int) WorkerConfig {
		// Enough per-row delay that mid-round kills actually land mid-round.
		return WorkerConfig{Slowdown: 1, PerRowDelay: 100 * time.Microsecond}
	}
	m, err := NewMasterWithConfig(MasterConfig{
		Addr:         "127.0.0.1:0",
		StallTimeout: 10 * time.Second,
		Retry:        RetryConfig{MaxAttempts: 4, BaseBackoff: 5 * time.Millisecond, AttemptTimeout: 5 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*Worker, n)
	for i := 0; i < n; i++ {
		cfg := wcfg(i)
		cfg.MasterAddr = m.Addr()
		w, err := NewWorker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = w
		go w.Run() //nolint:errcheck
		if err := m.WaitForWorkers(i+1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}

	// One float64 phase and one exact GF phase, both retained for
	// re-streaming to replacements.
	a := mat.Rand(rows, cols, rng)
	fcode, err := coding.NewMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	fenc := fcode.Encode(a)
	if err := Distribute(context.Background(), m.DefaultJob(), 0, fenc.Parts); err != nil {
		t.Fatal(err)
	}
	gdata := randElems(rng, rows*cols)
	gcode, err := coding.NewGFMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	genc, err := gcode.Encode(rows, cols, gdata)
	if err != nil {
		t.Fatal(err)
	}
	if err := Distribute(context.Background(), m.DefaultJob(), 1, genc.Parts); err != nil {
		t.Fatal(err)
	}
	if fenc.BlockRows != genc.BlockRows {
		t.Fatalf("block rows diverge: float %d vs GF %d", fenc.BlockRows, genc.BlockRows)
	}
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: fenc.BlockRows, Granularity: fenc.BlockRows}
	speeds := []float64{1, 1, 1, 1, 1}

	// Multi-job extension: a second tenant serves exact GF rounds on its
	// own dataset (its private phase 0) concurrently with the default
	// job's entire churn loop below — worker deaths land mid-round on
	// both jobs at once, and both must keep decoding bit-exactly.
	tdata := randElems(rng, rows*cols)
	tenc, err := gcode.Encode(rows, cols, tdata)
	if err != nil {
		t.Fatal(err)
	}
	tenant := m.OpenJob(JobConfig{})
	if err := Distribute(context.Background(), tenant, 0, tenc.Parts); err != nil {
		t.Fatal(err)
	}
	stopTenant := make(chan struct{})
	tenantRounds := make(chan int, 1)
	go func() {
		trng := rand.New(rand.NewSource(778))
		tstrat := &sched.GeneralS2C2{N: n, K: k, BlockRows: tenc.BlockRows, Granularity: tenc.BlockRows}
		completed := 0
		for iter := 0; ; iter++ {
			select {
			case <-stopTenant:
				tenantRounds <- completed
				return
			default:
			}
			x := randElems(trng, cols)
			plan, err := tstrat.Plan(speeds)
			if err != nil {
				t.Errorf("tenant plan %d: %v", iter, err)
				tenantRounds <- completed
				return
			}
			partials, _, err := Run(context.Background(), tenant, RoundSpec[gf.Elem]{Iter: iter, X: x, Plan: plan, K: k, TimeoutFrac: 10.0})
			if err != nil {
				t.Errorf("tenant round %d: %v", iter, err)
				tenantRounds <- completed
				return
			}
			got, err := tenc.DecodeMatVec(partials)
			if err != nil {
				t.Errorf("tenant decode %d: %v", iter, err)
				tenantRounds <- completed
				return
			}
			want := gfGroundTruth(rows, cols, tdata, x)
			for q := range want {
				if got[q] != want[q] {
					t.Errorf("tenant round %d row %d: GF decode %d != local %d", iter, q, got[q], want[q])
					tenantRounds <- completed
					return
				}
			}
			completed++
		}
	}()

	checkFloat := func(r int, xs []float64, w int, partials []*coding.Partial) {
		t.Helper()
		got, err := fenc.DecodeMatVec(partials)
		if err != nil {
			t.Fatalf("round %d: decode: %v", r, err)
		}
		lane := make([]float64, rows)
		for l := 0; l < w; l++ {
			want := mat.MatVec(a, xs[l*cols:(l+1)*cols])
			for q := 0; q < rows; q++ {
				lane[q] = got[q*w+l]
			}
			if !mat.VecApproxEqual(lane, want, 1e-8) {
				t.Fatalf("round %d lane %d: decode drifted from A·x", r, l)
			}
		}
	}
	checkGF := func(r int, xs []gf.Elem, w int, partials []*coding.GFPartial) {
		t.Helper()
		got, err := genc.DecodeMatVec(partials)
		if err != nil {
			t.Fatalf("round %d: GF decode: %v", r, err)
		}
		for l := 0; l < w; l++ {
			want := gfGroundTruth(rows, cols, gdata, xs[l*cols:(l+1)*cols])
			for q := range want {
				if got[q*w+l] != want[q] {
					t.Fatalf("round %d lane %d row %d: GF decode %d != local %d", r, l, q, got[q*w+l], want[q])
				}
			}
		}
	}

	for r := 0; r < rounds; r++ {
		// Churn: every killEvery rounds a random worker dies — half the
		// time right now, half the time mid-round via a timed close.
		var kill *time.Timer
		if r > 0 && r%killEvery == 0 {
			victim := rng.Intn(n)
			if rng.Intn(2) == 0 {
				handles[victim].Close() //nolint:errcheck
			} else {
				h := handles[victim]
				kill = time.AfterFunc(time.Duration(rng.Intn(2000))*time.Microsecond, func() { h.Close() }) //nolint:errcheck
			}
		}
		plan, err := strat.Plan(speeds)
		if err != nil {
			t.Fatal(err)
		}
		switch r % 4 {
		case 0: // float64, single x
			x := make([]float64, cols)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			partials, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{Iter: r, X: x, Plan: plan, K: k, TimeoutFrac: 10.0})
			if err != nil {
				t.Fatalf("round %d (float): %v", r, err)
			}
			checkFloat(r, x, 1, partials)
		case 1: // float64, batched
			xs := make([]float64, batchW*cols)
			for i := range xs {
				xs[i] = rng.NormFloat64()
			}
			partials, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{Iter: r, X: xs, Width: batchW, Plan: plan, K: k, TimeoutFrac: 10.0})
			if err != nil {
				t.Fatalf("round %d (float batch): %v", r, err)
			}
			checkFloat(r, xs, batchW, partials)
		case 2: // GF, single x
			x := randElems(rng, cols)
			partials, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[gf.Elem]{Iter: r, Phase: 1, X: x, Plan: plan, K: k, TimeoutFrac: 10.0})
			if err != nil {
				t.Fatalf("round %d (gf): %v", r, err)
			}
			checkGF(r, x, 1, partials)
		case 3: // GF, batched
			xs := randElems(rng, batchW*cols)
			partials, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[gf.Elem]{Iter: r, Phase: 1, X: xs, Width: batchW, Plan: plan, K: k, TimeoutFrac: 10.0})
			if err != nil {
				t.Fatalf("round %d (gf batch): %v", r, err)
			}
			checkGF(r, xs, batchW, partials)
		}
		if kill != nil {
			kill.Stop()
		}
		// Heal before the next round: one replacement spare per dead
		// slot, promoted and re-streamed by RepairWorkers.
		if dead := m.DeadWorkers(); len(dead) > 0 {
			for _, slot := range dead {
				handles[slot] = addSpare(t, m, wcfg(rng.Intn(n)))
			}
			repaired, err := m.RepairWorkers()
			if err != nil {
				t.Fatalf("round %d: repair: %v", r, err)
			}
			if repaired != len(dead) {
				t.Fatalf("round %d: repaired %d of %d dead slots", r, repaired, len(dead))
			}
			if left := m.DeadWorkers(); len(left) != 0 {
				t.Fatalf("round %d: dead slots remain after repair: %v", r, left)
			}
		}
	}

	close(stopTenant)
	if completed := <-tenantRounds; completed == 0 {
		t.Fatal("tenant job completed no rounds during the soak")
	} else {
		t.Logf("tenant job completed %d concurrent rounds", completed)
	}
	tenant.Close()

	totals := m.RecoveryTotals()
	if totals.ReplacementAdmits == 0 || totals.ReStreams == 0 {
		t.Fatalf("soak saw no churn recovery: %+v", totals)
	}
	t.Logf("soak recovery totals: %+v", totals)

	// Zero leaked goroutines: Shutdown tears down the master loops and
	// every worker (registered and parked) exits with its connection.
	m.Shutdown()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutines leaked after Shutdown: baseline %d, now %d\n%s",
		baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}
