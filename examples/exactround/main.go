// Exactround: bit-exact distributed rounds over GF(2³¹−1) on a real
// loopback TCP cluster — the property the float64 wire path cannot give.
//
// Two legs run against the same four-worker cluster (one 8× straggler):
//
//  1. An exact (4,3)-MDS round: a field matrix is encoded by a
//     systematic Cauchy code (the encoding borrows the matrix, which is
//     never modified afterwards), streamed to the workers as uint32
//     partitions, and each round's distributed A·x is compared element-for-element — not within a
//     tolerance — against the local field compute, including rounds where
//     the straggler trips the §4.3 timeout and rows are reassigned.
//
//  2. A Lagrange leg: the matrix's k row blocks are Lagrange-encoded,
//     each worker's share ships as an exact partition, every worker
//     evaluates its share against x (a degree-1 polynomial of the share),
//     and any RecoveryThreshold(1) complete results interpolate the block
//     products exactly — multiparty exact evaluation end to end.
//
//     go run ./examples/exactround
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	s2c2 "github.com/coded-computing/s2c2"
)

func main() {
	const (
		n, k   = 4, 3
		rows   = 120
		cols   = 16
		rounds = 5
	)
	master, err := s2c2.NewMasterWithConfig(s2c2.MasterConfig{
		Addr:         "127.0.0.1:0",
		StallTimeout: 10 * time.Second,
		ChunkRows:    16, // stream exact partitions in 16-row chunks
	})
	if err != nil {
		log.Fatal(err)
	}
	defer master.Shutdown()
	// A single-tenant master runs every round on its default job.
	ctx, job := context.Background(), master.DefaultJob()

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

	// Integer payload reduced into the field; its exact products are the
	// ground truth every distributed round must reproduce bit for bit.
	rng := rand.New(rand.NewSource(42))
	data := make([]s2c2.GFElem, rows*cols)
	for i := range data {
		data[i] = s2c2.NewGFElem(rng.Uint64())
	}
	local := s2c2.NewGFMatrixFromData(rows, cols, data)

	// ---- Leg 1: exact (n,k)-MDS rounds with S2C2 assignment ------------
	code, err := s2c2.NewGFMDSCode(n, k)
	if err != nil {
		log.Fatal(err)
	}
	enc, err := code.Encode(rows, cols, data)
	if err != nil {
		log.Fatal(err)
	}
	if err := s2c2.Distribute(ctx, job, 0, enc.Parts); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed %d exact GF(2^31-1) partitions of %d rows\n", n, enc.BlockRows)

	phase := s2c2.NewCodedPhase(job, 0, enc, &s2c2.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows},
		0.15, s2c2.NewTracker(s2c2.LastValue{}, n))
	x := make([]s2c2.GFElem, cols)
	want := make([]s2c2.GFElem, rows)
	for iter := 0; iter < rounds; iter++ {
		for i := range x {
			x[i] = s2c2.NewGFElem(rng.Uint64())
		}
		local.MulVecInto(want, x)
		start := time.Now()
		got, stats, err := phase.RunIteration(ctx, iter, x)
		if err != nil {
			log.Fatal(err)
		}
		for r := range want {
			if got[r] != want[r] {
				log.Fatalf("round %d row %d: distributed %d != local %d — exactness violated",
					iter, r, got[r], want[r])
			}
		}
		fmt.Printf("round %d: %6.1fms  rows/worker %v  timed-out %v  bit-exact\n",
			iter, float64(time.Since(start).Microseconds())/1000,
			stats.AssignedRows, stats.TimedOut)
	}

	// ---- Leg 2: Lagrange shares as exact partitions --------------------
	lag, err := s2c2.NewLagrangeCode(n, k)
	if err != nil {
		log.Fatal(err)
	}
	blockRows := (rows + k - 1) / k
	blocks := make([][]s2c2.GFElem, k)
	for b := range blocks {
		blocks[b] = make([]s2c2.GFElem, blockRows*cols)
		for r := 0; r < blockRows; r++ {
			if src := b*blockRows + r; src < rows {
				copy(blocks[b][r*cols:(r+1)*cols], data[src*cols:(src+1)*cols])
			}
		}
	}
	shares, err := lag.Encode(blocks)
	if err != nil {
		log.Fatal(err)
	}
	parts := make([]*s2c2.GFMatrix, n)
	for i, s := range shares {
		parts[i] = s2c2.NewGFMatrixFromData(blockRows, cols, s)
	}
	if err := s2c2.Distribute(ctx, job, 1, parts); err != nil {
		log.Fatal(err)
	}
	// Every worker evaluates its whole share; any threshold-many complete
	// results decode.
	assignments := make([][]s2c2.Range, n)
	for w := range assignments {
		assignments[w] = []s2c2.Range{{Lo: 0, Hi: blockRows}}
	}
	plan := &s2c2.Plan{BlockRows: blockRows, Assignments: assignments}
	threshold := lag.RecoveryThreshold(1)
	for i := range x {
		x[i] = s2c2.NewGFElem(rng.Uint64())
	}
	local.MulVecInto(want, x)
	partials, _, err := s2c2.Run(ctx, job, s2c2.RoundSpec[s2c2.GFElem]{Phase: 1, X: x, Plan: plan, K: threshold, TimeoutFrac: 10.0})
	if err != nil {
		log.Fatal(err)
	}
	results, err := s2c2.CompleteGFShares(partials, blockRows)
	if err != nil {
		log.Fatal(err)
	}
	decoded, err := lag.Decode(results, 1)
	if err != nil {
		log.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		if decoded[r/blockRows][r%blockRows] != want[r] {
			log.Fatalf("Lagrange row %d: distributed %d != local %d",
				r, decoded[r/blockRows][r%blockRows], want[r])
		}
	}
	fmt.Printf("Lagrange leg: %d of %d shares interpolated A·x bit-exactly\n", threshold, n)
	fmt.Println("every distributed result matched the local field compute bit for bit")
}
