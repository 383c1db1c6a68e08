package rpc

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/sched"
)

// TestWaitForWorkersClearsDeadline is the stale-deadline regression: a
// WaitForWorkers call that returns (here: times out) must clear the
// accept deadline it set, so a later call can still accept connections.
func TestWaitForWorkersClearsDeadline(t *testing.T) {
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	if err := m.WaitForWorkers(1, 50*time.Millisecond); err == nil {
		t.Fatal("WaitForWorkers with no workers should time out")
	}
	go func() {
		w, err := NewWorker(WorkerConfig{MasterAddr: m.Addr()})
		if err != nil {
			t.Error(err)
			return
		}
		w.Run() //nolint:errcheck // shutdown closes the conn
	}()
	if err := m.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatalf("second WaitForWorkers failed after a timed-out first call: %v", err)
	}
}

// TestWaitForWorkersStalledDialer is the serialized-admission regression:
// a dialer that connects first but never sends its handshake must not
// delay admission of workers connecting behind it. With serial admission
// the stalled connection holds the accept loop for handshakeTimeout (5 s)
// and this WaitForWorkers call times out; with concurrent admission the
// healthy worker is admitted immediately.
func TestWaitForWorkersStalledDialer(t *testing.T) {
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	// The stalled dialer lands in the listener's accept queue first, so
	// the master accepts (and begins admitting) it before the real worker.
	stalled, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	go func() {
		time.Sleep(100 * time.Millisecond) // let the stalled conn queue first
		w, err := NewWorker(WorkerConfig{MasterAddr: m.Addr()})
		if err != nil {
			t.Error(err)
			return
		}
		w.Run() //nolint:errcheck // shutdown closes the conn
	}()
	start := time.Now()
	if err := m.WaitForWorkers(1, 3*time.Second); err != nil {
		t.Fatalf("WaitForWorkers behind a stalled dialer: %v", err)
	}
	if elapsed := time.Since(start); elapsed >= 2500*time.Millisecond {
		t.Fatalf("worker admitted only after %v; admission is serialized behind the stalled dialer", elapsed)
	}
}

// TestWaitForWorkersSurplusParksUntilNextCall pins the cluster-size
// invariant under concurrent admission: a handshake that completes past
// the call's target must NOT grow the cluster mid-round (plans and
// partition distribution are sized to NumWorkers), but must be
// registered by the next WaitForWorkers call.
func TestWaitForWorkersSurplusParksUntilNextCall(t *testing.T) {
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	for i := 0; i < 2; i++ {
		go func() {
			w, err := NewWorker(WorkerConfig{MasterAddr: m.Addr()})
			if err != nil {
				return // surplus conn may be parked or closed by shutdown
			}
			w.Run() //nolint:errcheck // shutdown closes the conn
		}()
	}
	if err := m.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// The second worker's handshake finishes on its own schedule; however
	// long we wait, it must never be registered without a call asking.
	time.Sleep(300 * time.Millisecond)
	if got := m.NumWorkers(); got != 1 {
		t.Fatalf("cluster grew to %d workers without a WaitForWorkers call (want 1)", got)
	}
	// The next call registers the parked worker without a new dial.
	if err := m.WaitForWorkers(2, 5*time.Second); err != nil {
		t.Fatalf("second WaitForWorkers did not register the parked worker: %v", err)
	}
	if got := m.NumWorkers(); got != 2 {
		t.Fatalf("NumWorkers = %d after growing, want 2", got)
	}
}

// TestShutdownReleasesAdmissions pins that Shutdown joins everything the
// accept loop starts: with a stalled dialer mid-handshake, a rejected
// handshake and a parked spare, Shutdown returns well inside
// handshakeTimeout and no goroutine outlives the master.
func TestShutdownReleasesAdmissions(t *testing.T) {
	baseline := runtime.NumGoroutine()
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	stalled, err := net.Dial("tcp", m.Addr()) // connects, never handshakes
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	rejected, err := net.Dial("tcp", m.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer rejected.Close()
	if _, err := rejected.Write([]byte("GARBAGE!!")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		w, err := NewWorker(WorkerConfig{MasterAddr: m.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		go w.Run() //nolint:errcheck // shutdown closes the conn
	}
	if err := m.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "the surplus worker to park", func() bool { return m.Spares() == 1 })
	rejected.SetReadDeadline(time.Now().Add(time.Second)) //nolint:errcheck
	if _, err := rejected.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("rejected handshake still open: %v", err)
	}

	start := time.Now()
	m.Shutdown()
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Fatalf("Shutdown took %v with a handshake in flight (handshake timeout is %v)", elapsed, handshakeTimeout)
	}
	// A goroutine an earlier test left winding down can sit in the
	// baseline and mask a leak, so the master's frames are checked too.
	stacks := func() string {
		buf := make([]byte, 1<<20)
		return string(buf[:runtime.Stack(buf, true)])
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline || strings.Contains(stacks(), "rpc.(*Master)") {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines outlived Shutdown: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), stacks())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShutdownReleasesParkedSpare checks that Shutdown sends a parked spare
// the shutdown frame registered workers get, so the spare's Run returns nil
// instead of a connection error (which a rejoining worker would answer by
// redialing the departed master).
func TestShutdownReleasesParkedSpare(t *testing.T) {
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	done := make(chan error, 2)
	for i := 0; i < 2; i++ {
		w, err := NewWorker(WorkerConfig{MasterAddr: m.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		go func() { done <- w.Run() }()
	}
	if err := m.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "the surplus worker to park", func() bool { return m.Spares() == 1 })
	m.Shutdown()
	timeout := time.After(2 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Worker.Run after Shutdown: %v, want nil", err)
			}
		case <-timeout:
			t.Fatalf("%d of 2 workers still running 2 s after Shutdown", 2-i)
		}
	}
}

// TestTimeoutReassignmentDecodesBitExact forces a timeout + reassignment
// and checks that the round's partials — which contain two partials from
// the same helper worker (original ranges + reassigned extras) — decode
// bit-identically to the same partial set recomputed locally. Worker 3's
// Work frame is held back until the test ends, so its own result can
// never complete coverage before a helper's reassigned rows do.
func TestTimeoutReassignmentDecodesBitExact(t *testing.T) {
	n, k := 4, 2
	release := make(chan struct{})
	m := startTestCluster(t, n, clusterConfig{
		worker: func(int) WorkerConfig { return WorkerConfig{PerRowDelay: 200 * time.Microsecond} },
		faults: map[int]*workerFault{3: {holdWork: release}},
	})
	defer close(release)

	rng := rand.New(rand.NewSource(30))
	a := mat.Rand(48, 6, rng)
	x := make([]float64, 6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	code, _ := coding.NewMDSCode(n, k)
	enc := code.Encode(a)
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
	}
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows, Granularity: enc.BlockRows}
	// Mis-prediction: the planner believes all four are equally fast, so
	// the silent worker 3 gets real work and must be timed out.
	plan, err := strat.Plan([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	partials, stats, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{X: x, Plan: plan, K: k, TimeoutFrac: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reassigned == 0 {
		t.Fatal("expected reassigned rows after the timeout")
	}
	// The reassignment path must have delivered two partials from at
	// least one helper worker.
	perWorker := map[int]int{}
	for _, p := range partials {
		perWorker[p.Worker]++
	}
	dup := false
	for _, c := range perWorker {
		if c > 1 {
			dup = true
		}
	}
	if !dup {
		t.Fatalf("expected a worker with original + reassigned partials, got %v", perWorker)
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute the identical partial set locally (same workers, same
	// ranges — the worker kernel and the local kernel are the same code)
	// and require a bit-exact decode match.
	local := make([]*coding.Partial, len(partials))
	for i, p := range partials {
		local[i] = enc.WorkerCompute(p.Worker, x, p.Ranges)
		if len(local[i].Values) != len(p.Values) {
			t.Fatalf("partial %d: local recompute has %d values, rpc delivered %d", i, len(local[i].Values), len(p.Values))
		}
		for q := range p.Values {
			if p.Values[q] != local[i].Values[q] {
				t.Fatalf("partial %d value %d: rpc %v != local %v", i, q, p.Values[q], local[i].Values[q])
			}
		}
	}
	want, err := enc.DecodeMatVec(local)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: decode over rpc partials %v differs bit-wise from local decode %v", i, got[i], want[i])
		}
	}
	// And the decode must of course match the true product numerically.
	if !mat.VecApproxEqual(got, mat.MatVec(a, x), 1e-8) {
		t.Fatal("decode after reassignment mismatch")
	}
}

// TestShutdownDuringActiveRound exercises the Shutdown/readLoop ordering:
// closing the master while workers are mid-computation (and reads are in
// flight) must not panic, deadlock, or leave goroutines stuck. Run with
// -race this also checks the connection teardown for data races.
func TestShutdownDuringActiveRound(t *testing.T) {
	n, k := 3, 2
	m := startCluster(t, n, map[int]float64{0: 50, 1: 50, 2: 50})
	rng := rand.New(rand.NewSource(31))
	a := mat.Rand(60, 4, rng)
	x := []float64{1, 2, 3, 4}
	code, _ := coding.NewMDSCode(n, k)
	enc := code.Encode(a)
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
	}
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows, Granularity: enc.BlockRows}
	plan, _ := strat.Plan([]float64{1, 1, 1})
	done := make(chan struct{})
	go func() {
		defer close(done)
		// The round races the shutdown: either outcome (success before
		// the close, or an error after it) is acceptable — what matters
		// is that it returns.
		Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{X: x, Plan: plan, K: k, TimeoutFrac: 10.0}) //nolint:errcheck
	}()
	time.Sleep(2 * time.Millisecond) // let the work messages go out
	m.Shutdown()
	m.Shutdown() // idempotent
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after Shutdown")
	}
}

// TestRunRoundReuseRound runs an iterative job on a ReuseRound master:
// each round's partials alias the master's workspace, are decoded before
// the next round, and every decode must stay correct.
func TestRunRoundReuseRound(t *testing.T) {
	n, k := 4, 3
	cfg := MasterConfig{Addr: "127.0.0.1:0", ReuseRound: true}
	m, err := NewMasterWithConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	for i := 0; i < n; i++ {
		go func() {
			w, err := NewWorker(WorkerConfig{MasterAddr: m.Addr(), PerRowDelay: 50 * time.Microsecond})
			if err != nil {
				t.Error(err)
				return
			}
			w.Run() //nolint:errcheck
		}()
		if err := m.WaitForWorkers(i+1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(32))
	a := mat.Rand(30, 5, rng)
	code, _ := coding.NewMDSCode(n, k)
	enc := code.Encode(a)
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
	}
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows, Granularity: enc.BlockRows}
	ws := enc.NewDecodeWorkspace()
	dst := make([]float64, enc.OrigRows)
	speeds := []float64{1, 1, 1, 1}
	for iter := 0; iter < 5; iter++ {
		x := make([]float64, 5)
		for i := range x {
			x[i] = float64(iter) + rng.Float64()
		}
		plan, err := m.DefaultJob().PlanRound(strat, speeds)
		if err != nil {
			t.Fatal(err)
		}
		partials, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{Iter: iter, X: x, Plan: plan, K: k, TimeoutFrac: 10.0})
		if err != nil {
			t.Fatal(err)
		}
		got, err := enc.DecodeMatVecInto(dst, partials, ws)
		if err != nil {
			t.Fatal(err)
		}
		if !mat.VecApproxEqual(got, mat.MatVec(a, x), 1e-8) {
			t.Fatalf("iteration %d: ReuseRound decode mismatch", iter)
		}
	}
}

// gatherFixture builds a synthetic full round of worker results against a
// real encoding, bypassing the network.
func gatherFixture(tb testing.TB) (*coding.EncodedMatrix, []*Result, []float64) {
	rng := rand.New(rand.NewSource(33))
	a := mat.Rand(600, 20, rng)
	code, err := coding.NewMDSCode(10, 8)
	if err != nil {
		tb.Fatal(err)
	}
	enc := code.Encode(a)
	x := make([]float64, 20)
	for i := range x {
		x[i] = rng.Float64()
	}
	var results []*Result
	for _, w := range []int{0, 1, 2, 3, 4, 5, 8, 9} {
		p := enc.WorkerCompute(w, x, []coding.Range{{Lo: 0, Hi: enc.BlockRows}})
		results = append(results, &Result{
			Iter: 0, Phase: 0, Worker: w, RowWidth: 1, Ranges: p.Ranges, Values: p.Values,
		})
	}
	return enc, results, mat.MatVec(a, x)
}

// TestGatherAndDecodeZeroAllocsSteadyState is the acceptance criterion:
// a steady-state round's master-side gather bookkeeping plus the decode
// must allocate nothing. (TestMasterWireRoundZeroAllocsSteadyState adds
// the frame send and receive on top of this.)
func TestGatherAndDecodeZeroAllocsSteadyState(t *testing.T) {
	enc, results, want := gatherFixture(t)
	m := &Master{cfg: MasterConfig{ReuseRound: true}}
	n, k := 10, 8
	decWS := enc.NewDecodeWorkspace()
	dst := make([]float64, enc.OrigRows)
	runRound := func() {
		ws := &m.def.float.round
		ws.begin(n, enc.BlockRows, k, 1)
		for _, r := range results {
			if err := ws.addResult(r, time.Millisecond); err != nil {
				t.Fatal(err)
			}
		}
		if ws.Needed != 0 {
			t.Fatal("fixture round did not reach coverage")
		}
		partials, stats, err := ws.finish(m.cfg.ReuseRound)
		if err != nil {
			t.Fatal(err)
		}
		if stats.AssignedRows == nil {
			t.Fatal("missing stats")
		}
		if _, err := enc.DecodeMatVecInto(dst, partials, decWS); err != nil {
			t.Fatal(err)
		}
	}
	runRound() // warm: sizes the workspace, factors the decode set
	if !mat.VecApproxEqual(dst, want, 1e-8) {
		t.Fatal("gather+decode fixture produced a wrong result")
	}
	allocs := steadyAllocs(50, runRound)
	if allocs != 0 {
		t.Fatalf("50 steady-state gather+decode rounds allocate %v times, want 0", allocs)
	}
}

// TestGatherDeduplicatesCoverage pins the duplicate-delivery hardening: a
// worker re-sending rows it already delivered must not advance coverage,
// so the master can never hand the decoder a round it cannot decode.
func TestGatherDeduplicatesCoverage(t *testing.T) {
	m := &Master{cfg: MasterConfig{ReuseRound: true}}
	ws := &m.def.float.round
	ws.begin(3, 4, 2, 1)
	r := &Result{Worker: 0, RowWidth: 1, Ranges: []coding.Range{{Lo: 0, Hi: 4}}, Values: []float64{1, 2, 3, 4}}
	if err := ws.addResult(r, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := ws.addResult(r, 2*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ws.Needed != 4 {
		t.Fatalf("duplicate delivery advanced coverage: needed=%d, want 4", ws.Needed)
	}
	for row, c := range ws.Cov {
		if c != 1 {
			t.Fatalf("row %d coverage %d after duplicate delivery, want 1", row, c)
		}
	}
	// A second distinct worker completes coverage at k=2.
	r2 := &Result{Worker: 2, RowWidth: 1, Ranges: []coding.Range{{Lo: 0, Hi: 4}}, Values: []float64{5, 6, 7, 8}}
	if err := ws.addResult(r2, 3*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ws.Needed != 0 {
		t.Fatalf("coverage incomplete after second worker: needed=%d", ws.Needed)
	}
	// Malformed ranges are rejected, not indexed out of bounds.
	bad := &Result{Worker: 1, RowWidth: 1, Ranges: []coding.Range{{Lo: 2, Hi: 9}}, Values: make([]float64, 7)}
	if err := ws.addResult(bad, time.Millisecond); err == nil {
		t.Fatal("out-of-partition result range must be rejected")
	}
}
