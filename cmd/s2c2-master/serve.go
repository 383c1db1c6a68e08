package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/rpc"
	"github.com/coded-computing/s2c2/internal/sched"
)

// runServe is the exact mode (-mode exact): one master retains jobs
// independent GF(2³¹−1) datasets — integer matrices MDS-encoded in the
// field and streamed to the workers as uint32 partitions — and serves
// all the jobs' rounds concurrently over the same workers. Each job
// verifies every distributed decode bit-identically against its own
// local field compute, the guarantee float64 rounds cannot give. With
// one job every round prints a line; the run reports per-job and
// aggregate throughput so the overlap is visible (compare against the
// same invocation with -jobs 1).
func runServe(cfg rpc.MasterConfig, n, k, iters, rows, cols int, timeoutFrac float64, jobs int) error {
	m, err := rpc.NewMasterWithConfig(cfg)
	if err != nil {
		return err
	}
	defer m.Shutdown()
	fmt.Printf("master listening on %s (exact mode, %d jobs), waiting for %d workers...\n", m.Addr(), jobs, n)
	if err := m.WaitForWorkers(n, 5*time.Minute); err != nil {
		return err
	}
	fmt.Printf("all %d workers connected\n", n)
	// Workers dialing in after this point keep parking as warm spares for
	// the retry and eviction paths; the master's accept loop never stops.
	defer reportRecovery(m)

	code, err := coding.NewGFMDSCode(n, k)
	if err != nil {
		return err
	}
	tenants := make([]*tenant, jobs)
	for i := range tenants {
		rng := rand.New(rand.NewSource(int64(i) + 1))
		data := make([]gf.Elem, rows*cols)
		for q := range data {
			data[q] = gf.New(rng.Uint64())
		}
		enc, err := code.Encode(rows, cols, data)
		if err != nil {
			return err
		}
		j := m.OpenJob(rpc.JobConfig{Priority: i})
		if err := rpc.Distribute(context.Background(), j, 0, enc.Parts); err != nil {
			return err
		}
		tenants[i] = &tenant{
			job:   j,
			phase: rpc.NewCodedPhase(j, 0, enc, &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows}, timeoutFrac, predict.NewTracker(predict.LastValue{}, n)),
			local: gf.NewMatrixFromData(rows, cols, data),
			rng:   rand.New(rand.NewSource(1000 + int64(i) + 1)),
		}
	}
	fmt.Printf("distributed %d exact datasets of %dx%d (%d partitions each)\n",
		jobs, rows, cols, n)

	var wg sync.WaitGroup
	errs := make([]error, jobs)
	elapsed := make([]time.Duration, jobs)
	start := time.Now()
	for i, t := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			elapsed[i], errs[i] = t.serve(iters, jobs == 1)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("job %d failed: %w", tenants[i].job.ID(), err)
		}
	}
	for i, t := range tenants {
		fmt.Printf("job %d: %d rounds in %7.2fms (%.1f rounds/s)  bit-exact ✓\n",
			t.job.ID(), iters, float64(elapsed[i].Microseconds())/1000,
			float64(iters)/elapsed[i].Seconds())
		t.job.Close()
	}
	if jobs == 1 {
		fmt.Printf("all %d exact rounds decoded bit-identically to the local field compute\n", iters)
		return nil
	}
	fmt.Printf("served %d jobs x %d rounds in %.2fms — %.1f rounds/s aggregate, all bit-exact\n",
		jobs, iters, float64(wall.Microseconds())/1000, float64(jobs*iters)/wall.Seconds())
	return nil
}

// tenant is one served exact job: its dataset's round step, the local
// matrix its decodes are checked against and its input stream.
type tenant struct {
	job   *rpc.Job
	phase *rpc.CodedPhase[gf.Elem]
	local *gf.Matrix
	rng   *rand.Rand
}

// serve runs iters rounds of random x, checking every decode bit for
// bit, and returns their wall time; verbose prints each round.
func (t *tenant) serve(iters int, verbose bool) (time.Duration, error) {
	rows, cols := t.local.Dims()
	x, want := make([]gf.Elem, cols), make([]gf.Elem, rows)
	start := time.Now()
	for iter := 0; iter < iters; iter++ {
		for q := range x {
			x[q] = gf.New(t.rng.Uint64())
		}
		t.local.MulVecInto(want, x)
		roundStart := time.Now()
		got, stats, err := t.phase.RunIteration(context.Background(), iter, x)
		if err != nil {
			return 0, err
		}
		for r := range want {
			if got[r] != want[r] {
				return 0, fmt.Errorf("iter %d row %d: distributed %d != local %d — exactness violated", iter, r, got[r], want[r])
			}
		}
		if !verbose {
			continue
		}
		if len(stats.TimedOut) > 0 {
			fmt.Printf("  iter %d: timed out %v, reassigned %d rows\n", iter, stats.TimedOut, stats.Reassigned)
		}
		compute, resp := slowestWorker(stats)
		fmt.Printf("iter %2d: %8.2fms  slowest worker %s compute / %s response  bit-exact ✓\n",
			iter, float64(time.Since(roundStart).Microseconds())/1000, ms(compute), ms(resp))
	}
	return time.Since(start), nil
}
