package rpc

// recovery_test.go pins the elastic-membership and failure-recovery
// contracts: eager discard of dead parked spares, distribute-path retries
// that re-stream only the lost worker's partition to a warm spare, rounds
// that survive a worker dying mid-round by folding its rows back into the
// plan (both element types, batched included), the
// EvictAfter round-failure policy with RepairWorkers promotion, and the
// heartbeat liveness watch.

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/sched"
)

// waitUntil polls cond until it holds or the deadline expires.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// startHandleCluster is startTestCluster with worker handles, so tests
// can kill specific workers in place of a process death (Worker.Close).
func startHandleCluster(t *testing.T, n int, mcfg MasterConfig, wcfg func(i int) WorkerConfig) (*Master, []*Worker) {
	t.Helper()
	if mcfg.Addr == "" {
		mcfg.Addr = "127.0.0.1:0"
	}
	m, err := NewMasterWithConfig(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	handles := make([]*Worker, n)
	for i := 0; i < n; i++ {
		cfg := WorkerConfig{}
		if wcfg != nil {
			cfg = wcfg(i)
		}
		cfg.MasterAddr = m.Addr()
		w, err := NewWorker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = w
		go w.Run() //nolint:errcheck // teardown closes the conn
		if err := m.WaitForWorkers(i+1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return m, handles
}

// addSpare dials one extra worker at the master and returns its handle
// once the accept loop has parked it in the spare pool.
func addSpare(t *testing.T, m *Master, cfg WorkerConfig) *Worker {
	t.Helper()
	before := m.Spares()
	cfg.MasterAddr = m.Addr()
	w, err := NewWorker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	go w.Run() //nolint:errcheck
	waitUntil(t, 5*time.Second, "spare to park", func() bool { return m.Spares() > before })
	return w
}

// TestParkedSpareDeathDiscardedEagerly pins the fix for the parked-
// connection blind spot: a spare that dies while parked is discarded the
// moment its connection drops, and the next admission skips it without
// wedging.
func TestParkedSpareDeathDiscardedEagerly(t *testing.T) {
	m, _ := startHandleCluster(t, 1, MasterConfig{}, nil)
	doomed := addSpare(t, m, WorkerConfig{})
	if err := doomed.Close(); err != nil {
		t.Fatal(err)
	}
	// Eager discard: the pool empties without anyone popping it.
	waitUntil(t, 5*time.Second, "dead spare to be discarded", func() bool { return m.Spares() == 0 })
	// The next admission must register the healthy newcomer, not wedge on
	// (or hand out) the corpse.
	addSpare(t, m, WorkerConfig{})
	if err := m.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatalf("admission after a parked death wedged: %v", err)
	}
	if got := m.NumWorkers(); got != 2 {
		t.Fatalf("NumWorkers = %d, want 2", got)
	}
}

// distributeRetryFixture builds a 3-worker wire cluster whose worker 1
// link drops mid-stream, with retries enabled and one warm spare parked.
func distributeRetryFixture(t *testing.T) *Master {
	t.Helper()
	const n = 3
	m := startTestCluster(t, n, clusterConfig{
		master: MasterConfig{
			ChunkRows: 1, ChunkWindow: 1, StallTimeout: 10 * time.Second,
			Retry: RetryConfig{MaxAttempts: 4, BaseBackoff: 5 * time.Millisecond, AttemptTimeout: 2 * time.Second},
		},
		faults: map[int]*workerFault{1: {dropAfterFrames: 3}},
	})
	addSpare(t, m, WorkerConfig{})
	return m
}

// TestDistributeRetryReStreamsToSpare is the distribution half of the
// acceptance criterion: a worker dying during
// partition distribution is replaced by a warm spare, only its partition
// is re-streamed, and the subsequent round decodes bit-exactly.
func TestDistributeRetryReStreamsToSpare(t *testing.T) {
	const n, k = 3, 2
	m := distributeRetryFixture(t)
	rng := rand.New(rand.NewSource(94))
	a := mat.Rand(24, 3, rng)
	code, err := coding.NewMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	enc := code.Encode(a)
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatalf("distribute did not recover via retry: %v", err)
	}
	totals := m.RecoveryTotals()
	if totals.Retries == 0 || totals.ReStreams == 0 {
		t.Fatalf("recovery totals report no retry activity: %+v", totals)
	}
	if totals.ReplacementAdmits != 1 {
		t.Fatalf("ReplacementAdmits = %d, want 1 (the spare promoted into slot 1)", totals.ReplacementAdmits)
	}
	// The replacement must hold slot 1's partition: run a full round and
	// require partial-level bit-exactness against local recompute.
	x := []float64{1, -2, 0.5}
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows, Granularity: enc.BlockRows}
	plan, err := strat.Plan([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	partials, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{X: x, Plan: plan, K: k, TimeoutFrac: 10.0})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range partials {
		local := enc.WorkerCompute(p.Worker, x, p.Ranges)
		for q := range p.Values {
			if p.Values[q] != local.Values[q] {
				t.Fatalf("partial %d (worker %d) value %d: rpc %v != local %v", i, p.Worker, q, p.Values[q], local.Values[q])
			}
		}
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecApproxEqual(got, mat.MatVec(a, x), 1e-8) {
		t.Fatal("decode mismatch after re-streamed distribution")
	}
}

// TestDistributeGFRetryReStreamsToSpare is TestDistributeRetryReStreams-
// ToSpare for the exact GF(2³¹−1) path: the re-streamed partition must
// decode bit-exactly.
func TestDistributeGFRetryReStreamsToSpare(t *testing.T) {
	const n, k = 3, 2
	m := distributeRetryFixture(t)
	rng := rand.New(rand.NewSource(95))
	rows, cols := 24, 4
	data := randElems(rng, rows*cols)
	code, err := coding.NewGFMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := code.Encode(rows, cols, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatalf("GF distribute did not recover via retry: %v", err)
	}
	if totals := m.RecoveryTotals(); totals.ReStreams == 0 || totals.ReplacementAdmits != 1 {
		t.Fatalf("recovery totals report no re-stream/promotion: %+v", totals)
	}
	x := randElems(rng, cols)
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows, Granularity: enc.BlockRows}
	plan, err := strat.Plan([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	partials, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[gf.Elem]{X: x, Plan: plan, K: k, TimeoutFrac: 10.0})
	if err != nil {
		t.Fatal(err)
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	want := gfGroundTruth(rows, cols, data, x)
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("row %d: decode %d != local %d after GF re-stream", r, got[r], want[r])
		}
	}
}

// TestDistributeRetryAfterWorkerDeath covers a death that precedes
// distribution: the victim is killed through its handle (its connection
// is torn down), so its transfer fails on the dead connection rather than
// being cut mid-stream, and the retry engine promotes a spare and
// re-streams. Whatever of the ~1 MiB partition the socket buffers absorb,
// the transfer fails at its first credit wait on the dead connection.
func TestDistributeRetryAfterWorkerDeath(t *testing.T) {
	const n, k = 3, 2
	m, handles := startHandleCluster(t, n, MasterConfig{
		StallTimeout: 10 * time.Second,
		Retry:        RetryConfig{MaxAttempts: 5, BaseBackoff: 5 * time.Millisecond, AttemptTimeout: 5 * time.Second},
	}, func(i int) WorkerConfig { return WorkerConfig{} })
	addSpare(t, m, WorkerConfig{})
	if err := handles[1].Close(); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "master to notice the death", func() bool {
		dead := m.DeadWorkers()
		return len(dead) == 1 && dead[0] == 1
	})
	rng := rand.New(rand.NewSource(96))
	a := mat.Rand(512, 512, rng) // 256-row × 512-col partitions ≈ 1 MiB each
	code, err := coding.NewMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	enc := code.Encode(a)
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatalf("distribute did not recover via retry: %v", err)
	}
	if totals := m.RecoveryTotals(); totals.ReplacementAdmits != 1 {
		t.Fatalf("ReplacementAdmits = %d, want 1: %+v", totals.ReplacementAdmits, totals)
	}
	x := make([]float64, 512)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows, Granularity: enc.BlockRows}
	plan, err := strat.Plan([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	partials, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{X: x, Plan: plan, K: k, TimeoutFrac: 10.0})
	if err != nil {
		t.Fatal(err)
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecApproxEqual(got, mat.MatVec(a, x), 1e-8) {
		t.Fatal("decode mismatch after re-stream to replacement")
	}
}

// midRoundDeathCluster builds a 4-worker wire cluster whose worker 1 link
// is severed by the proxy exactly after the distribute frames, so the
// round's work frame (or the connection behind it) dies mid-round
// deterministically. blockRows chunks at ChunkRows=1 plus the stream
// start make blockRows+1 distribute frames.
func midRoundDeathCluster(t *testing.T, blockRows int) *Master {
	t.Helper()
	return startTestCluster(t, 4, clusterConfig{
		master: MasterConfig{ChunkRows: 1, ChunkWindow: 8, StallTimeout: 10 * time.Second},
		faults: map[int]*workerFault{1: {dropAfterFrames: blockRows + 1}},
	})
}

// TestRoundSurvivesWorkerDeathMidRound is the mid-round half of the
// acceptance criterion (wire, float64): worker 1 dies as the round's work
// message reaches it, the master folds its rows back into the plan, and
// the round completes with a bit-exact decode and the death reported in
// RecoveryStats.
func TestRoundSurvivesWorkerDeathMidRound(t *testing.T) {
	const n, k = 4, 2
	rng := rand.New(rand.NewSource(97))
	a := mat.Rand(48, 6, rng)
	code, err := coding.NewMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	enc := code.Encode(a)
	m := midRoundDeathCluster(t, enc.BlockRows)
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows, Granularity: enc.BlockRows}
	plan, err := strat.Plan([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	partials, stats, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{X: x, Plan: plan, K: k, TimeoutFrac: 10.0})
	if err != nil {
		t.Fatalf("round did not survive the mid-round death: %v", err)
	}
	if len(stats.Recovery.DeadWorkers) != 1 || stats.Recovery.DeadWorkers[0] != 1 {
		t.Fatalf("Recovery.DeadWorkers = %v, want [1]", stats.Recovery.DeadWorkers)
	}
	if stats.Recovery.RecoveredRows == 0 {
		t.Fatal("Recovery.RecoveredRows = 0, want the dead worker's rows folded back in")
	}
	for i, p := range partials {
		local := enc.WorkerCompute(p.Worker, x, p.Ranges)
		for q := range p.Values {
			if p.Values[q] != local.Values[q] {
				t.Fatalf("partial %d (worker %d) value %d: rpc %v != local %v", i, p.Worker, q, p.Values[q], local.Values[q])
			}
		}
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecApproxEqual(got, mat.MatVec(a, x), 1e-8) {
		t.Fatal("decode mismatch after mid-round recovery")
	}
}

// TestGFRoundSurvivesWorkerDeathMidRound is the exact-path mirror: the
// repaired round must still decode bit-exactly in GF(2³¹−1).
func TestGFRoundSurvivesWorkerDeathMidRound(t *testing.T) {
	const n, k = 4, 2
	rng := rand.New(rand.NewSource(98))
	rows, cols := 48, 6
	data := randElems(rng, rows*cols)
	code, err := coding.NewGFMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := code.Encode(rows, cols, data)
	if err != nil {
		t.Fatal(err)
	}
	m := midRoundDeathCluster(t, enc.BlockRows)
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
	}
	x := randElems(rng, cols)
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows, Granularity: enc.BlockRows}
	plan, err := strat.Plan([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	partials, stats, err := Run(context.Background(), m.DefaultJob(), RoundSpec[gf.Elem]{X: x, Plan: plan, K: k, TimeoutFrac: 10.0})
	if err != nil {
		t.Fatalf("GF round did not survive the mid-round death: %v", err)
	}
	if len(stats.Recovery.DeadWorkers) != 1 || stats.Recovery.DeadWorkers[0] != 1 {
		t.Fatalf("Recovery.DeadWorkers = %v, want [1]", stats.Recovery.DeadWorkers)
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	want := gfGroundTruth(rows, cols, data, x)
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("row %d: decode %d != local %d after mid-round recovery", r, got[r], want[r])
		}
	}
}

// TestBatchRoundSurvivesWorkerDeathMidRound runs the repair path at batch
// width 2: every lane of the recovered rows must decode correctly.
func TestBatchRoundSurvivesWorkerDeathMidRound(t *testing.T) {
	const n, k, w = 4, 2, 2
	rng := rand.New(rand.NewSource(99))
	a := mat.Rand(48, 6, rng)
	code, err := coding.NewMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	enc := code.Encode(a)
	m := midRoundDeathCluster(t, enc.BlockRows)
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
	}
	xs := make([]float64, w*6)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows, Granularity: enc.BlockRows}
	plan, err := strat.Plan([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	partials, stats, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{X: xs, Width: w, Plan: plan, K: k, TimeoutFrac: 10.0})
	if err != nil {
		t.Fatalf("batched round did not survive the mid-round death: %v", err)
	}
	if len(stats.Recovery.DeadWorkers) != 1 {
		t.Fatalf("Recovery.DeadWorkers = %v, want one death", stats.Recovery.DeadWorkers)
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	lane := make([]float64, len(got)/w)
	for l := 0; l < w; l++ {
		want := mat.MatVec(a, xs[l*6:(l+1)*6])
		for r := range lane {
			lane[r] = got[r*w+l]
		}
		if !mat.VecApproxEqual(lane, want, 1e-8) {
			t.Fatalf("lane %d decode mismatch after mid-round recovery", l)
		}
	}
}

// TestGFRoundSurvivesWorkerDeathByClose kills a slow worker mid-round via
// its handle (the in-process stand-in for a process death, where the
// proxy-cut tests above sever the link) and requires the round to
// complete with the death attributed and the decode exact.
func TestGFRoundSurvivesWorkerDeathByClose(t *testing.T) {
	const n, k = 4, 2
	// Every worker takes ~48ms per block (24 rows × 2ms), so the kill at
	// 15ms lands while the whole round is still in flight.
	m, handles := startHandleCluster(t, n, MasterConfig{StallTimeout: 10 * time.Second}, func(i int) WorkerConfig {
		return WorkerConfig{Slowdown: 1, PerRowDelay: 2 * time.Millisecond}
	})
	rng := rand.New(rand.NewSource(100))
	rows, cols := 48, 6
	data := randElems(rng, rows*cols)
	code, err := coding.NewGFMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := code.Encode(rows, cols, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
	}
	x := randElems(rng, cols)
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows, Granularity: enc.BlockRows}
	plan, err := strat.Plan([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	kill := time.AfterFunc(15*time.Millisecond, func() { handles[1].Close() }) //nolint:errcheck
	defer kill.Stop()
	partials, stats, err := Run(context.Background(), m.DefaultJob(), RoundSpec[gf.Elem]{X: x, Plan: plan, K: k, TimeoutFrac: 10.0})
	if err != nil {
		t.Fatalf("round did not survive the worker death: %v", err)
	}
	if len(stats.Recovery.DeadWorkers) != 1 || stats.Recovery.DeadWorkers[0] != 1 {
		t.Fatalf("Recovery.DeadWorkers = %v, want [1]", stats.Recovery.DeadWorkers)
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	want := gfGroundTruth(rows, cols, data, x)
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("row %d: decode %d != local %d after mid-round recovery", r, got[r], want[r])
		}
	}
}

// TestEvictAfterRoundFailuresAndRepair drives the round-failure eviction
// policy end to end: a silent worker times out a round, EvictAfter=1
// evicts it, and RepairWorkers promotes a spare that serves the next
// round with a correct partition.
func TestEvictAfterRoundFailuresAndRepair(t *testing.T) {
	const n, k = 3, 2
	rng := rand.New(rand.NewSource(101))
	a := mat.Rand(24, 3, rng)
	code, err := coding.NewMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	enc := code.Encode(a)
	// blockRows+1 distribute frames pass, then the work frame (and all
	// after it) is swallowed: worker 2 stays connected but silent.
	m := startTestCluster(t, n, clusterConfig{
		master: MasterConfig{
			ChunkRows: 1, ChunkWindow: 8, StallTimeout: 10 * time.Second,
			EvictAfter: 1,
		},
		faults: map[int]*workerFault{2: {stallAfterFrames: enc.BlockRows + 1}},
	})
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
	}
	x := []float64{1, -2, 0.5}
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows, Granularity: enc.BlockRows}
	plan, err := strat.Plan([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	partials, stats, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{X: x, Plan: plan, K: k, TimeoutFrac: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	timedOut := false
	for _, w := range stats.TimedOut {
		timedOut = timedOut || w == 2
	}
	if !timedOut {
		t.Fatalf("TimedOut = %v, want worker 2", stats.TimedOut)
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecApproxEqual(got, mat.MatVec(a, x), 1e-8) {
		t.Fatal("decode mismatch in the timeout round")
	}
	// EvictAfter=1: the failed round evicts worker 2.
	if stats.Recovery.Evictions != 1 {
		t.Fatalf("Recovery.Evictions = %d, want 1", stats.Recovery.Evictions)
	}
	waitUntil(t, 5*time.Second, "evicted slot to be dead", func() bool {
		dead := m.DeadWorkers()
		return len(dead) == 1 && dead[0] == 2
	})
	// Repair: park a spare and promote it into the dead slot.
	addSpare(t, m, WorkerConfig{})
	repaired, err := m.RepairWorkers()
	if err != nil {
		t.Fatal(err)
	}
	if repaired != 1 {
		t.Fatalf("RepairWorkers repaired %d slots, want 1", repaired)
	}
	if dead := m.DeadWorkers(); len(dead) != 0 {
		t.Fatalf("DeadWorkers = %v after repair, want none", dead)
	}
	// The replacement holds the re-streamed partition: a full-strength
	// round over all three workers must decode bit-exactly.
	plan2, err := strat.Plan([]float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	partials2, stats2, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{Iter: 1, X: x, Plan: plan2, K: k, TimeoutFrac: 10.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats2.TimedOut) != 0 || len(stats2.Recovery.DeadWorkers) != 0 {
		t.Fatalf("post-repair round still degraded: timedOut=%v dead=%v", stats2.TimedOut, stats2.Recovery.DeadWorkers)
	}
	for i, p := range partials2 {
		local := enc.WorkerCompute(p.Worker, x, p.Ranges)
		for q := range p.Values {
			if p.Values[q] != local.Values[q] {
				t.Fatalf("post-repair partial %d (worker %d) mismatch", i, p.Worker)
			}
		}
	}
}

// TestHeartbeatEvictsSilentConnection pins the liveness watch: a parked
// spare whose link swallows pings is evicted within the miss budget,
// while healthy connections (registered and parked alike) survive the
// pinging.
func TestHeartbeatEvictsSilentConnection(t *testing.T) {
	const n = 2
	m, _ := startHandleCluster(t, n, MasterConfig{
		Heartbeat:     20 * time.Millisecond,
		HeartbeatMiss: 3,
	}, nil)
	// A healthy spare and a spare whose master→worker link forwards only
	// its first frame (the first ping) and swallows the rest: it looks
	// connected but never answers again.
	addSpare(t, m, WorkerConfig{})
	silentAddr := startFaultProxy(t, m.Addr(), &workerFault{stallAfterFrames: 1})
	sw, err := NewWorker(WorkerConfig{MasterAddr: silentAddr})
	if err != nil {
		t.Fatal(err)
	}
	go sw.Run() //nolint:errcheck
	waitUntil(t, 5*time.Second, "both spares to park", func() bool { return m.Spares() == 2 })
	waitUntil(t, 5*time.Second, "the silent spare to be evicted", func() bool { return m.Spares() == 1 })
	if totals := m.RecoveryTotals(); totals.Evictions == 0 {
		t.Fatalf("no eviction recorded: %+v", totals)
	}
	// The registered workers answered every ping: still fully alive.
	if dead := m.DeadWorkers(); len(dead) != 0 {
		t.Fatalf("healthy workers evicted by the heartbeat: %v", dead)
	}
	if m.NumWorkers() != n {
		t.Fatalf("NumWorkers = %d, want %d", m.NumWorkers(), n)
	}
}

// TestHeartbeatEvictedSpareLeavesPool pins the eviction bookkeeping: a
// parked spare evicted by the heartbeat is tallied in RecoveryTotals
// before Spares() shows it gone, and it leaves the spare pool at once
// instead of lingering there, connection and buffers held, until a
// later pop skips it.
func TestHeartbeatEvictedSpareLeavesPool(t *testing.T) {
	m, _ := startHandleCluster(t, 1, MasterConfig{
		Heartbeat:     25 * time.Millisecond,
		HeartbeatMiss: 4,
	}, nil)
	addSpare(t, m, WorkerConfig{})
	silentAddr := startFaultProxy(t, m.Addr(), &workerFault{stallAfterFrames: 1})
	sw, err := NewWorker(WorkerConfig{MasterAddr: silentAddr})
	if err != nil {
		t.Fatal(err)
	}
	go sw.Run() //nolint:errcheck
	waitUntil(t, 5*time.Second, "both spares to park", func() bool { return m.Spares() == 2 })
	evictions := -1
	waitUntil(t, 5*time.Second, "the silent spare to be evicted", func() bool {
		if m.Spares() != 1 {
			return false
		}
		evictions = m.RecoveryTotals().Evictions
		return true
	})
	if evictions < 1 {
		t.Fatalf("Spares() dropped to 1 with %d evictions recorded", evictions)
	}
	m.mu.Lock()
	parked := len(m.pending)
	m.mu.Unlock()
	if parked != 1 {
		t.Fatalf("spare pool holds %d connections after the eviction, want 1", parked)
	}
}
