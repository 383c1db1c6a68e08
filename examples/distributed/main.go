// Distributed: a real TCP cluster on loopback — master plus four worker
// processes-worth of goroutines, one of them an 8× straggler.
//
// This exercises the actual network runtime (the binary wire protocol
// over TCP, §6 of the paper): coded partitions are streamed once in
// credit-controlled chunks, every round broadcasts the vector plus
// per-worker S2C2 assignments under a per-round context, the master
// measures real response times, applies the 15% timeout, and decodes from
// whichever workers cover each row. The same binaries (cmd/s2c2-master,
// cmd/s2c2-worker) run across real machines.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	s2c2 "github.com/coded-computing/s2c2"
)

func main() {
	const (
		n, k  = 4, 3
		iters = 8
	)
	master, err := s2c2.NewMasterWithConfig(s2c2.MasterConfig{
		Addr:         "127.0.0.1:0",
		StallTimeout: 10 * time.Second, // fail rounds fast on a loopback demo
		ChunkRows:    64,               // stream partitions in 64-row chunks
		ChunkWindow:  4,                // ≤ 4 unacknowledged chunks in flight
	})
	if err != nil {
		log.Fatal(err)
	}
	defer master.Shutdown()
	// A single-tenant master runs every round on its default job.
	job := master.DefaultJob()

	// Launch workers sequentially so IDs are deterministic; worker 3 is a
	// straggler with an 8x artificial slowdown.
	for i := 0; i < n; i++ {
		slow := 1.0
		if i == 3 {
			slow = 8.0
		}
		cfg := s2c2.WorkerConfig{
			MasterAddr:  master.Addr(),
			Slowdown:    slow,
			PerRowDelay: 100 * time.Microsecond,
		}
		go func() {
			w, err := s2c2.NewWorker(cfg)
			if err != nil {
				log.Fatal(err)
			}
			_ = w.Run()
		}()
		if err := master.WaitForWorkers(i+1, 10*time.Second); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("cluster up: %d workers (worker 3 runs 8x slow)\n", n)

	// Encode and ship the data once.
	data := s2c2.NewClassificationDataset(400, 40, 21)
	code, err := s2c2.NewMDSCode(n, k)
	if err != nil {
		log.Fatal(err)
	}
	enc := code.Encode(data.X)
	if err := s2c2.Distribute(context.Background(), job, 0, enc.Parts); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed %d coded partitions of %d rows\n", n, enc.BlockRows)

	// Iterate: speeds observed from real response times feed the plan —
	// the straggler's share shrinks after round 0.
	phase := s2c2.NewCodedPhase(job, 0, enc, &s2c2.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows},
		0.15, s2c2.NewTracker(s2c2.LastValue{}, n))
	w := make([]float64, data.X.Cols())
	for i := range w {
		w[i] = 0.01
	}
	want := s2c2.MatVec(data.X, w)
	for iter := 0; iter < iters; iter++ {
		start := time.Now()
		// Each round runs under its own context: a caller could cancel a
		// straggling round and move on instead of waiting out the stall
		// deadline.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		got, stats, err := phase.RunIteration(ctx, iter, w)
		cancel()
		if err != nil {
			log.Fatal(err)
		}
		checkClose(got, want)
		fmt.Printf("round %d: %6.1fms  rows/worker %v  timed-out %v\n",
			iter, float64(time.Since(start).Microseconds())/1000,
			stats.AssignedRows, stats.TimedOut)
	}
	fmt.Println("all rounds decoded correctly against local ground truth")
}

func checkClose(got, want []float64) {
	for i := range want {
		d := got[i] - want[i]
		if d > 1e-6 || d < -1e-6 {
			log.Fatalf("decode mismatch at row %d: %v vs %v", i, got[i], want[i])
		}
	}
}
