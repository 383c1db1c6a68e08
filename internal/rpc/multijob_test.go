package rpc

// multijob_test.go covers the multi-job serving layer: M jobs of mixed
// element types and batch widths racing over one shared cluster with
// bit-exact decodes (the tentpole acceptance property), the wait queue's
// shutdown and policy behavior, the serving-path lifecycle bugfixes
// (distribute cancellation mid-backoff, admission-loop listener death),
// and the per-job steady-state zero-allocation bar.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/wire"
)

// flatSpeeds returns n unit speeds (uniform workers).
func flatSpeeds(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return s
}

// TestConcurrentJobsExactness is the tentpole acceptance property: four
// jobs — the master's default float64 job, a GF job, a batched float64
// job, and a batched GF job, every one using phase 0 of its own namespace
// — run rounds concurrently over one shared cluster, under a concurrency
// cap that forces the wait queue into play, and each decode matches a
// local recompute (bit-exact on the GF paths). The race detector covers
// the demux and queue machinery.
func TestConcurrentJobsExactness(t *testing.T) {
	t.Run("wire", func(t *testing.T) {
		const (
			n, k  = 4, 3
			iters = 3
		)
		m := startTestCluster(t, n, clusterConfig{
			master: MasterConfig{MaxConcurrentRounds: 2},
			worker: func(i int) WorkerConfig {
				return WorkerConfig{PerRowDelay: 50 * time.Microsecond}
			},
		})
		rng := rand.New(rand.NewSource(1019))
		strat := &sched.GeneralS2C2{N: n, K: k}
		speeds := flatSpeeds(n)

		var wg sync.WaitGroup
		errCh := make(chan error, 4)
		fail := func(format string, args ...any) {
			errCh <- fmt.Errorf(format, args...)
		}

		// Job 1 of 4: the default float64 job (job 0).
		{
			a := mat.Rand(36, 5, rng)
			code, err := coding.NewMDSCode(n, k)
			if err != nil {
				t.Fatal(err)
			}
			enc := code.Encode(a)
			if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
				t.Fatal(err)
			}
			x := make([]float64, 5)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			want := mat.MatVec(a, x)
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := *strat
				s.BlockRows, s.Granularity = enc.BlockRows, enc.BlockRows
				for iter := 0; iter < iters; iter++ {
					plan, err := s.Plan(speeds)
					if err != nil {
						fail("default job plan: %v", err)
						return
					}
					partials, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{Iter: iter, X: x, Plan: plan, K: k, TimeoutFrac: 10.0})
					if err != nil {
						fail("default job round %d: %v", iter, err)
						return
					}
					got, err := enc.DecodeMatVec(partials)
					if err != nil {
						fail("default job decode %d: %v", iter, err)
						return
					}
					if !mat.VecApproxEqual(got, want, 1e-8) {
						fail("default job iter %d: decode drifted from A·x", iter)
						return
					}
				}
			}()
		}

		// Job 2 of 4: exact GF(2³¹−1), width 1 — must be bit-exact.
		{
			j := m.OpenJob(JobConfig{})
			defer j.Close()
			rows, cols := 30, 4
			data := randElems(rng, rows*cols)
			code, err := coding.NewGFMDSCode(n, k)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := code.Encode(rows, cols, data)
			if err != nil {
				t.Fatal(err)
			}
			if err := Distribute(context.Background(), j, 0, enc.Parts); err != nil {
				t.Fatal(err)
			}
			x := randElems(rng, cols)
			want := gfGroundTruth(rows, cols, data, x)
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := *strat
				s.BlockRows, s.Granularity = enc.BlockRows, enc.BlockRows
				for iter := 0; iter < iters; iter++ {
					plan, err := s.Plan(speeds)
					if err != nil {
						fail("gf job plan: %v", err)
						return
					}
					partials, _, err := Run(context.Background(), j, RoundSpec[gf.Elem]{Iter: iter, X: x, Plan: plan, K: k, TimeoutFrac: 10.0})
					if err != nil {
						fail("gf job round %d: %v", iter, err)
						return
					}
					got, err := enc.DecodeMatVec(partials)
					if err != nil {
						fail("gf job decode %d: %v", iter, err)
						return
					}
					for r := range want {
						if got[r] != want[r] {
							fail("gf job iter %d row %d: %d != local %d", iter, r, got[r], want[r])
							return
						}
					}
				}
			}()
		}

		// Job 3 of 4: batched float64, width 3.
		{
			const w = 3
			j := m.OpenJob(JobConfig{})
			defer j.Close()
			a := mat.Rand(24, 6, rng)
			code, err := coding.NewMDSCode(n, k)
			if err != nil {
				t.Fatal(err)
			}
			enc := code.Encode(a)
			if err := Distribute(context.Background(), j, 0, enc.Parts); err != nil {
				t.Fatal(err)
			}
			xs := make([]float64, w*6)
			for i := range xs {
				xs[i] = rng.NormFloat64()
			}
			rows := 24
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := *strat
				s.BlockRows, s.Granularity = enc.BlockRows, enc.BlockRows
				lane := make([]float64, rows)
				for iter := 0; iter < iters; iter++ {
					plan, err := s.Plan(speeds)
					if err != nil {
						fail("batch job plan: %v", err)
						return
					}
					partials, _, err := Run(context.Background(), j, RoundSpec[float64]{Iter: iter, X: xs, Width: w, Plan: plan, K: k, TimeoutFrac: 10.0})
					if err != nil {
						fail("batch job round %d: %v", iter, err)
						return
					}
					got, err := enc.DecodeMatVec(partials)
					if err != nil {
						fail("batch job decode %d: %v", iter, err)
						return
					}
					for l := 0; l < w; l++ {
						want := mat.MatVec(a, xs[l*6:(l+1)*6])
						for r := 0; r < rows; r++ {
							lane[r] = got[r*w+l]
						}
						if !mat.VecApproxEqual(lane, want, 1e-8) {
							fail("batch job iter %d lane %d drifted from A·x_l", iter, l)
							return
						}
					}
				}
			}()
		}

		// Job 4 of 4: batched GF, width 2 — bit-exact per lane.
		{
			const w = 2
			j := m.OpenJob(JobConfig{})
			defer j.Close()
			rows, cols := 20, 5
			data := randElems(rng, rows*cols)
			code, err := coding.NewGFMDSCode(n, k)
			if err != nil {
				t.Fatal(err)
			}
			enc, err := code.Encode(rows, cols, data)
			if err != nil {
				t.Fatal(err)
			}
			if err := Distribute(context.Background(), j, 0, enc.Parts); err != nil {
				t.Fatal(err)
			}
			xs := randElems(rng, w*cols)
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := *strat
				s.BlockRows, s.Granularity = enc.BlockRows, enc.BlockRows
				for iter := 0; iter < iters; iter++ {
					plan, err := s.Plan(speeds)
					if err != nil {
						fail("gf batch job plan: %v", err)
						return
					}
					partials, _, err := Run(context.Background(), j, RoundSpec[gf.Elem]{Iter: iter, X: xs, Width: w, Plan: plan, K: k, TimeoutFrac: 10.0})
					if err != nil {
						fail("gf batch job round %d: %v", iter, err)
						return
					}
					got, err := enc.DecodeMatVec(partials)
					if err != nil {
						fail("gf batch job decode %d: %v", iter, err)
						return
					}
					for l := 0; l < w; l++ {
						want := gfGroundTruth(rows, cols, data, xs[l*cols:(l+1)*cols])
						for r := range want {
							if got[r*w+l] != want[r] {
								fail("gf batch job iter %d lane %d row %d: %d != %d", iter, l, r, got[r*w+l], want[r])
								return
							}
						}
					}
				}
			}()
		}

		wg.Wait()
		close(errCh)
		for err := range errCh {
			t.Error(err)
		}
	})
}

// TestQueuedRoundsObserveShutdown pins the wait-queue half of the
// convenience-wrapper bugfix: rounds parked behind MaxConcurrentRounds=1
// — submitted through the background-context wrappers, with no caller
// context to cancel — must return errors when the master shuts down,
// instead of wedging in the queue forever.
func TestQueuedRoundsObserveShutdown(t *testing.T) {
	const n, queued = 1, 3
	m := startTestCluster(t, n, clusterConfig{
		master: MasterConfig{MaxConcurrentRounds: 1, StallTimeout: 30 * time.Second},
		worker: func(i int) WorkerConfig {
			return WorkerConfig{PerRowDelay: time.Second} // slot holder never finishes on its own
		},
	})
	rng := rand.New(rand.NewSource(1031))
	a := mat.Rand(12, 3, rng)
	code, err := coding.NewMDSCode(n, n)
	if err != nil {
		t.Fatal(err)
	}
	enc := code.Encode(a)
	x := []float64{1, 2, 3}
	strat := &sched.GeneralS2C2{N: n, K: n, BlockRows: enc.BlockRows, Granularity: enc.BlockRows}
	plan, err := strat.Plan(flatSpeeds(n))
	if err != nil {
		t.Fatal(err)
	}

	// One dataset per job (distribution is unaffected by PerRowDelay).
	jobs := make([]*Job, queued)
	for i := range jobs {
		jobs[i] = m.OpenJob(JobConfig{})
		if err := Distribute(context.Background(), jobs[i], 0, enc.Parts); err != nil {
			t.Fatal(err)
		}
	}
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
	}

	errs := make(chan error, queued+1)
	// The slot holder: a round the slow worker will not answer.
	go func() {
		_, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{X: x, Plan: plan, K: n, TimeoutFrac: 10.0})
		errs <- err
	}()
	waitUntil(t, 5*time.Second, "the slot holder to start", func() bool { return activeRounds(m) == 1 })
	// The parked rounds, through the Background()-pinned wrappers.
	for _, j := range jobs {
		go func(j *Job) {
			_, _, err := Run(context.Background(), j, RoundSpec[float64]{X: x, Plan: plan, K: n, TimeoutFrac: 10.0})
			errs <- err
		}(j)
	}
	waitUntil(t, 5*time.Second, "all rounds to park in the wait queue", func() bool {
		return queuedRounds(m) == queued
	})

	m.Shutdown()
	for i := 0; i < queued+1; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("a round submitted before Shutdown returned success")
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d rounds still wedged after Shutdown", queued+1-i, queued+1)
		}
	}
}

// TestDistributeCancelMidBackoff pins the retry-engine half of the
// cancellation bugfix: a distribute whose retry engine is sleeping out a
// long backoff must return promptly when the caller's context is
// canceled — with the per-worker *PartitionError attribution from the
// attempts already made intact.
func TestDistributeCancelMidBackoff(t *testing.T) {
	const n = 2
	m := startTestCluster(t, n, clusterConfig{
		master: MasterConfig{
			ChunkRows: 1, ChunkWindow: 1, StallTimeout: 10 * time.Second,
			// No spare is parked, so the first retry sleeps the full base
			// backoff — far beyond the context deadline.
			Retry: RetryConfig{MaxAttempts: 4, BaseBackoff: 30 * time.Second, AttemptTimeout: 2 * time.Second},
		},
		faults: map[int]*workerFault{1: {dropAfterFrames: 3}},
	})
	rng := rand.New(rand.NewSource(1033))
	a := mat.Rand(24, 3, rng)
	code, err := coding.NewMDSCode(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	enc := code.Encode(a)

	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = Distribute(ctx, m.DefaultJob(), 0, enc.Parts)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("distribute over a dropped link reported success")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("canceled distribute returned after %v — it slept through the 30s backoff", elapsed)
	}
	var pe *PartitionError
	if !errors.As(err, &pe) {
		t.Fatalf("cancellation lost the per-worker attribution: %v", err)
	}
	if pe.Worker != 1 {
		t.Fatalf("attributed worker %d, want 1 (the dropped link)", pe.Worker)
	}
}

// TestAdmitLoopExitsOnClosedListener pins the admission-loop bugfix: a
// listener that dies outside of Shutdown must be counted in
// RecoveryStats.AcceptFailures and end the loop, not spin silently
// forever — and Shutdown must still complete (it waits on the loop's
// goroutine, so a spinning loop would wedge it).
func TestAdmitLoopExitsOnClosedListener(t *testing.T) {
	m, err := NewMasterWithConfig(MasterConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	m.ln.Close() // the listener dies out from under the loop
	waitUntil(t, 5*time.Second, "the accept failure to be counted", func() bool {
		return m.RecoveryTotals().AcceptFailures >= 1
	})
	// WaitForWorkers reports the dead listener at once instead of waiting
	// out its timeout.
	start := time.Now()
	if err := m.WaitForWorkers(1, 10*time.Second); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("WaitForWorkers on a closed listener: %v, want net.ErrClosed", err)
	}
	if elapsed := time.Since(start); elapsed >= time.Second {
		t.Fatalf("WaitForWorkers on a closed listener took %v, want < 1s", elapsed)
	}
	done := make(chan struct{})
	go func() {
		m.Shutdown()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown wedged: the admission loop did not exit on the dead listener")
	}
}

// TestHighestPriorityPolicyOrdersQueue pins the pluggable-policy seam:
// with MaxConcurrentRounds=1 and the HighestPriority policy, the parked
// round belonging to the higher-priority job runs before an
// earlier-parked low-priority one.
func TestHighestPriorityPolicyOrdersQueue(t *testing.T) {
	const n = 1
	m := startTestCluster(t, n, clusterConfig{
		master: MasterConfig{MaxConcurrentRounds: 1, Policy: HighestPriority(), StallTimeout: 30 * time.Second},
		worker: func(i int) WorkerConfig { return WorkerConfig{} },
	})
	rng := rand.New(rand.NewSource(1049))
	a := mat.Rand(8, 2, rng)
	code, err := coding.NewMDSCode(n, n)
	if err != nil {
		t.Fatal(err)
	}
	enc := code.Encode(a)
	x := []float64{1, 1}
	strat := &sched.GeneralS2C2{N: n, K: n, BlockRows: enc.BlockRows, Granularity: enc.BlockRows}
	plan, err := strat.Plan(flatSpeeds(n))
	if err != nil {
		t.Fatal(err)
	}

	low := m.OpenJob(JobConfig{Priority: 1})
	high := m.OpenJob(JobConfig{Priority: 9})
	defer low.Close()
	defer high.Close()
	for _, j := range []*Job{low, high} {
		if err := Distribute(context.Background(), j, 0, enc.Parts); err != nil {
			t.Fatal(err)
		}
	}
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
	}

	// Hold the only slot with a round that blocks until released: the
	// worker is fast, so block the round by holding the slot directly.
	if err := m.acquireRoundSlot(context.Background(), &m.def); err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 2)
	var wg sync.WaitGroup
	run := func(j *Job, tag int) {
		defer wg.Done()
		if _, _, err := Run(context.Background(), j, RoundSpec[float64]{X: x, Plan: plan, K: n, TimeoutFrac: 10.0}); err != nil {
			t.Errorf("job %d round: %v", tag, err)
			return
		}
		order <- tag
	}
	wg.Add(2)
	go run(low, 1)
	waitUntil(t, 5*time.Second, "the low-priority round to park", func() bool { return queuedRounds(m) == 1 })
	go run(high, 9)
	waitUntil(t, 5*time.Second, "the high-priority round to park", func() bool { return queuedRounds(m) == 2 })

	m.releaseRoundSlot() // frees the slot: the policy must pick the high-priority round
	wg.Wait()
	close(order)
	first := <-order
	if first != 9 {
		t.Fatalf("first completed round was job priority %d, want the high-priority job (9)", first)
	}
}

// TestMultiJobWireRoundZeroAllocsSteadyState extends the per-round
// zero-allocation bar to the serving path: two opened jobs alternating
// steady-state rounds — job-tagged work frames out, job-tagged result
// frames in through jobFor routing — allocate nothing per round.
func TestMultiJobWireRoundZeroAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items, forcing reallocation")
	}
	enc, results, want := gatherFixture(t)
	n, k := 10, 8

	m := &Master{cfg: MasterConfig{ReuseRound: true}}
	initJob(&m.def, m, 0, JobConfig{})
	m.jobs = map[int]*Job{0: &m.def}
	m.wireSeq.Store(jobPhaseBase)
	jobs := []*Job{m.OpenJob(JobConfig{}), m.OpenJob(JobConfig{})}

	// Pre-encode each job's result frames once, as the workers would:
	// the same fixture values, tagged with the job id.
	payloads := make([][]byte, len(jobs))
	for i, j := range jobs {
		var stream bytes.Buffer
		sender := &wireConn{w: wire.NewWriter(&stream)}
		for _, r := range results {
			tagged := *r
			tagged.Job = j.id
			tagged.Phase = j.wirePhase(0)
			if err := sender.sendResult(&tagged); err != nil {
				t.Fatal(err)
			}
		}
		payloads[i] = stream.Bytes()
	}
	src := bytes.NewReader(nil)
	tc := &wireConn{w: wire.NewWriter(io.Discard), r: wire.NewReader(src)}

	decWS := enc.NewDecodeWorkspace()
	dst := make([]float64, enc.OrigRows)
	x := make([]float64, enc.Cols)
	assignment := []coding.Range{{Lo: 0, Hi: enc.BlockRows}}
	msg := &Msg{}

	runRound := func(i int) {
		j := jobs[i]
		wp := j.wirePhase(0)
		ws := &j.float.round
		j.float.recycle()
		ws.begin(n, enc.BlockRows, k, 1)
		for w := 0; w < n; w++ {
			ws.workMsg = Work{Job: j.id, Iter: 0, Phase: wp, W: 1, X: x, Ranges: assignment}
			if err := tc.sendWork(&ws.workMsg); err != nil {
				t.Fatal(err)
			}
		}
		src.Reset(payloads[i])
		for range results {
			if err := tc.recv(msg); err != nil {
				t.Fatal(err)
			}
			if msg.Kind != KindResult {
				t.Fatalf("kind %d", msg.Kind)
			}
			owner := m.jobFor(msg.Result.Job)
			if owner != j {
				t.Fatalf("result for job %d routed to job %d", j.id, owner.id)
			}
			r := fromPool[Result](&j.float.pool)
			*r, msg.Result = msg.Result, *r
			if err := ws.addResult(r, time.Millisecond); err != nil {
				t.Fatal(err)
			}
			ws.retained = append(ws.retained, r)
		}
		if ws.Needed != 0 {
			t.Fatal("fixture round did not reach coverage")
		}
		partials, _, err := ws.finish(m.cfg.ReuseRound)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := enc.DecodeMatVecInto(dst, partials, decWS); err != nil {
			t.Fatal(err)
		}
	}
	runRound(0) // warm both jobs: wire-phase maps, buffers, pooled slots
	runRound(1)
	if !mat.VecApproxEqual(dst, want, 1e-8) {
		t.Fatal("multi-job wire round fixture produced a wrong result")
	}
	turn := 0
	allocs := steadyAllocs(50, func() {
		runRound(turn)
		turn = 1 - turn
	})
	if allocs != 0 {
		t.Fatalf("50 steady-state multi-job rounds allocate %v times, want 0", allocs)
	}
}

// queuedRounds reports how many rounds are parked in m's wait queue.
func queuedRounds(m *Master) int {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	return len(m.waitq)
}

// activeRounds reports how many rounds hold m's concurrency slots. It
// stays 0 when MaxConcurrentRounds is unset (no accounting without a cap).
func activeRounds(m *Master) int {
	m.qmu.Lock()
	defer m.qmu.Unlock()
	return m.activeRounds
}
