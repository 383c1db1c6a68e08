package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/rpc"
	"github.com/coded-computing/s2c2/internal/sched"
)

// runServe is the multi-job exact mode (-mode exact -jobs N): one master
// retains N independent GF(2³¹−1) datasets and serves all N jobs' rounds
// concurrently over the same workers. Each job verifies every distributed
// decode bit-identically against its own local field compute; the run
// reports per-job and aggregate throughput so the overlap is visible
// (compare against the same invocation with -jobs 1).
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
	defer reportRecovery(m)

	code, err := coding.NewGFMDSCode(n, k)
	if err != nil {
		return err
	}

	type tenant struct {
		job   *rpc.Job
		local *gf.Matrix
		enc   *coding.GFEncodedMatrix
		seed  int64
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
			local: gf.NewMatrixFromData(rows, cols, data),
			enc:   enc,
			seed:  int64(i) + 1,
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
		go func(i int, t *tenant) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1000 + t.seed))
			strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: t.enc.BlockRows}
			speeds := make([]float64, n)
			for w := range speeds {
				speeds[w] = 1
			}
			decWS := t.enc.NewDecodeWorkspace()
			dst := make([]gf.Elem, t.enc.OrigRows)
			x := make([]gf.Elem, cols)
			want := make([]gf.Elem, rows)
			jobStart := time.Now()
			for iter := 0; iter < iters; iter++ {
				for q := range x {
					x[q] = gf.New(rng.Uint64())
				}
				t.local.MulVecInto(want, x)
				plan, err := strat.Plan(speeds)
				if err != nil {
					errs[i] = err
					return
				}
				partials, stats, err := rpc.Run(context.Background(), t.job, rpc.RoundSpec[gf.Elem]{Iter: iter, X: x, Plan: plan, K: k, TimeoutFrac: timeoutFrac})
				if err != nil {
					errs[i] = fmt.Errorf("job %d iter %d: %w", t.job.ID(), iter, err)
					return
				}
				if _, err := t.enc.DecodeMatVecInto(dst, partials, decWS); err != nil {
					errs[i] = err
					return
				}
				for r := range want {
					if dst[r] != want[r] {
						errs[i] = fmt.Errorf("job %d iter %d row %d: distributed %d != local %d — exactness violated",
							t.job.ID(), iter, r, dst[r], want[r])
						return
					}
				}
				for w := 0; w < n; w++ {
					if stats.ResponseTime[w] > 0 && stats.AssignedRows[w] > 0 {
						speeds[w] = float64(stats.AssignedRows[w]) / stats.ResponseTime[w].Seconds()
					}
				}
			}
			elapsed[i] = time.Since(jobStart)
		}(i, t)
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
	total := jobs * iters
	fmt.Printf("served %d jobs x %d rounds in %.2fms — %.1f rounds/s aggregate, all bit-exact\n",
		jobs, iters, float64(wall.Microseconds())/1000, float64(total)/wall.Seconds())
	return nil
}
