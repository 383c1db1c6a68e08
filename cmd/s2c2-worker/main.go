// Command s2c2-worker is the worker daemon of the TCP runtime: it dials
// the master, receives coded partitions, and serves per-round work
// assignments until shut down. Both compute paths are always available —
// float64 mat-vec rounds and exact GF(2³¹−1) rounds (the master's
// -mode exact) are selected per message by the protocol, so the same
// daemon serves either workload without flags.
//
// Usage:
//
//	s2c2-worker -master 127.0.0.1:7077
//	s2c2-worker -master 10.0.0.1:7077 -slowdown 5   # act as a straggler
//	s2c2-worker -master 10.0.0.1:7077 -rejoin 2s    # redial after a lost link
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/rpc"
)

func main() {
	var (
		master   = flag.String("master", "127.0.0.1:7077", "master host:port")
		slowdown = flag.Float64("slowdown", 1, "artificial slowdown factor (straggler emulation)")
		perRow   = flag.Duration("per-row-delay", 0, "fixed extra cost per computed row")
		maxFan   = flag.Int("max-fan", 0, "cap on kernel-pool fan-out per operation (0 = all cores; set when co-hosting workers)")
		writeTO  = flag.Duration("write-timeout", 0, "base per-send write deadline, scaled with payload (0 = 30s; raise with the master's -stall-timeout on slow links)")
		rejoin   = flag.Duration("rejoin", 0, "on a lost connection, redial the master at this interval instead of exiting (0 = exit); rejoined workers park as spares until the master admits them")
	)
	flag.Parse()

	cfg := rpc.WorkerConfig{
		MasterAddr:   *master,
		Slowdown:     *slowdown,
		PerRowDelay:  *perRow,
		Exec:         kernel.Exec{MaxFan: *maxFan},
		WriteTimeout: *writeTO,
	}
	for {
		err := serve(cfg, *slowdown)
		if err == nil {
			return
		}
		if *rejoin <= 0 {
			fmt.Fprintln(os.Stderr, "s2c2-worker:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "s2c2-worker: %v; rejoining in %v\n", err, *rejoin)
		time.Sleep(*rejoin)
	}
}

// serve runs one connection's lifetime: dial, serve rounds, and report
// how the session ended. A nil return is a clean master-initiated
// shutdown; an error is a refused dial or a dropped link.
func serve(cfg rpc.WorkerConfig, slowdown float64) error {
	w, err := rpc.NewWorker(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "s2c2-worker: connected to %s (slowdown %.1fx)\n", cfg.MasterAddr, slowdown)
	start := time.Now()
	if err := w.Run(); err != nil {
		return fmt.Errorf("exited after %v: %w", time.Since(start), err)
	}
	fmt.Fprintf(os.Stderr, "s2c2-worker: shut down cleanly after %v\n", time.Since(start))
	return nil
}
