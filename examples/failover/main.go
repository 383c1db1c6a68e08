// Failover: a worker dies mid-job and the cluster heals around it.
//
// A 4-worker (k=3) loopback cluster runs iterative coded mat-vec rounds
// while two failures are injected: worker 2 is killed between rounds and
// replaced from the spare pool (its coded partition is re-streamed to
// the replacement), and worker 1 is killed in the middle of a later
// round — the master folds its rows back into the assignment plan and
// the round still decodes, after which that slot is healed too. Every
// round's decode is checked against the local ground truth, and the
// cumulative recovery counters are printed at the end.
//
//	go run ./examples/failover
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	s2c2 "github.com/coded-computing/s2c2"
)

const (
	n, k  = 4, 3
	iters = 10
)

// spawn dials one worker at the master and returns its handle, so the
// demo can kill it the way a real process death would: by severing its
// connection mid-whatever-it-was-doing.
func spawn(master *s2c2.Master) *s2c2.Worker {
	w, err := s2c2.NewWorker(s2c2.WorkerConfig{
		MasterAddr:  master.Addr(),
		Slowdown:    1,
		PerRowDelay: 200 * time.Microsecond,
	})
	if err != nil {
		log.Fatal(err)
	}
	go w.Run() //nolint:errcheck // lifetime ends with its connection
	return w
}

// heal parks one fresh spare and promotes it into every dead slot,
// re-streaming the slot's coded partition to the newcomer.
func heal(master *s2c2.Master) {
	spawn(master)
	deadline := time.Now().Add(5 * time.Second)
	for master.Spares() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	repaired, err := master.RepairWorkers()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  healed %d dead slot(s) from the spare pool\n", repaired)
}

func main() {
	master, err := s2c2.NewMasterWithConfig(s2c2.MasterConfig{
		Addr:         "127.0.0.1:0",
		StallTimeout: 10 * time.Second,
		Retry:        s2c2.RetryConfig{MaxAttempts: 3, BaseBackoff: 20 * time.Millisecond},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer master.Shutdown()
	// A single-tenant master runs every round on its default job.
	ctx, job := context.Background(), master.DefaultJob()

	workers := make([]*s2c2.Worker, n)
	for i := 0; i < n; i++ {
		workers[i] = spawn(master)
		if err := master.WaitForWorkers(i+1, 10*time.Second); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("cluster up: %d workers, late joiners park as spares\n", n)

	data := s2c2.NewClassificationDataset(400, 40, 21)
	code, err := s2c2.NewMDSCode(n, k)
	if err != nil {
		log.Fatal(err)
	}
	enc := code.Encode(data.X)
	if err := s2c2.Distribute(ctx, job, 0, enc.Parts); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed %d coded partitions of %d rows\n", n, enc.BlockRows)

	// Speeds are tracked from response times; the grace fraction of 10
	// keeps the timeout out of the way, so what heals a round is the
	// death recovery alone.
	phase := s2c2.NewCodedPhase(job, 0, enc, &s2c2.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows},
		10.0, s2c2.NewTracker(s2c2.LastValue{}, n))
	x := make([]float64, data.X.Cols())
	for i := range x {
		x[i] = 0.01
	}
	want := s2c2.MatVec(data.X, x)
	for iter := 0; iter < iters; iter++ {
		switch iter {
		case 3:
			// Failure 1: a clean death between rounds.
			fmt.Println("  !! killing worker 2 between rounds")
			workers[2].Close() //nolint:errcheck
		case 7:
			// Failure 2: a death while the round is in flight.
			fmt.Println("  !! killing worker 1 mid-round")
			w := workers[1]
			time.AfterFunc(2*time.Millisecond, func() { w.Close() }) //nolint:errcheck
		}
		start := time.Now()
		got, stats, err := phase.RunIteration(ctx, iter, x)
		if err != nil {
			log.Fatal(err)
		}
		for i := range want {
			if d := got[i] - want[i]; d > 1e-6 || d < -1e-6 {
				log.Fatalf("decode mismatch at row %d: %v vs %v", i, got[i], want[i])
			}
		}
		fmt.Printf("round %d: %6.1fms  dead %v  recovered rows %d\n",
			iter, float64(time.Since(start).Microseconds())/1000,
			stats.Recovery.DeadWorkers, stats.Recovery.RecoveredRows)
		if dead := master.DeadWorkers(); len(dead) > 0 {
			heal(master)
		}
	}

	t := master.RecoveryTotals()
	fmt.Printf("all rounds decoded correctly against local ground truth\n")
	fmt.Printf("recovery totals: %d re-streams, %d replacements admitted, %d evictions\n",
		t.ReStreams, t.ReplacementAdmits, t.Evictions)
	if t.ReplacementAdmits < 2 {
		log.Fatalf("expected both killed workers to be replaced, got %d replacements", t.ReplacementAdmits)
	}
}
