package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/rpc"
	"github.com/coded-computing/s2c2/internal/sched"
)

// cluster is one in-process loopback master with its workers.
type cluster struct {
	m  *rpc.Master
	wg sync.WaitGroup
}

// stallTimeout bounds a round inside the runtime, so a hung round comes
// back to the harness as an error and is counted as failed.
const stallTimeout = 10 * time.Second

// startCluster listens on loopback and admits the workers one at a time,
// so worker ids follow the order of the configs.
func startCluster(mc rpc.MasterConfig, workers []rpc.WorkerConfig) (*cluster, error) {
	mc.Addr = "127.0.0.1:0"
	mc.StallTimeout = stallTimeout
	m, err := rpc.NewMasterWithConfig(mc)
	if err != nil {
		return nil, err
	}
	c := &cluster{m: m}
	for i, wc := range workers {
		wc.MasterAddr = m.Addr()
		wc.Exec = kernel.Exec{MaxFan: 1}
		w, err := rpc.NewWorker(wc)
		if err != nil {
			c.stop()
			return nil, err
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			_ = w.Run() // returns once the master's shutdown closes the link
		}()
		if err := m.WaitForWorkers(i+1, stallTimeout); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

// stop shuts the master down and waits for every worker loop to return.
func (c *cluster) stop() {
	c.m.Shutdown()
	c.wg.Wait()
}

// client is one closed-loop load generator: the three calls a round makes
// into the layers, and the ground-truth check that follows it. iter is
// the client's round counter; it picks the round's input from the seeded
// pool, so round and check see the same input.
type client struct {
	plan   func(mds, mispredicted bool) (*sched.Plan, error)
	round  func(iter int, plan *sched.Plan) (*rpc.RoundStats, error)
	decode func() error
	check  func(iter int) bool
	// mispredicted marks the S2C2-lane rounds planned from wrong speeds
	// (nil: none).
	mispredicted func(iter int) bool
	iter         int
}

// laneStats is what one lane (a strategy run for a time window) measured.
type laneStats struct {
	latMs     []float64 // plan → decode per round, rounds without spans
	tracedMs  []float64 // the same for rounds that recorded spans
	mispredMs []float64 // the mispredicted rounds among both
	wallS     float64
	cpuS      float64
	attempted int
	failed    int
	mallocs   uint64

	// Counted on span-recording rounds only.
	counted      int
	reassigned   int
	timedOut     int
	assignedRows int
	ranges       int
	planWorkers  int
	respSpreadMs []float64
}

func (s *laneStats) rounds() int { return s.attempted - s.failed }

func (s *laneStats) merge(o *laneStats) {
	s.latMs = append(s.latMs, o.latMs...)
	s.tracedMs = append(s.tracedMs, o.tracedMs...)
	s.mispredMs = append(s.mispredMs, o.mispredMs...)
	s.respSpreadMs = append(s.respSpreadMs, o.respSpreadMs...)
	s.attempted += o.attempted
	s.failed += o.failed
	s.mallocs += o.mallocs
	s.counted += o.counted
	s.reassigned += o.reassigned
	s.timedOut += o.timedOut
	s.assignedRows += o.assignedRows
	s.ranges += o.ranges
	s.planWorkers += o.planWorkers
}

const (
	// traceBlock is the run length of span-recording rounds in a traced
	// lane; blocks alternate with span-free ones so both see the same
	// machine state and their latency difference is the tracing overhead.
	traceBlock = 32
	// maxLaneFailures ends a lane early when rounds keep failing, so a
	// dead cluster cannot hold the harness for minRounds stall timeouts.
	maxLaneFailures = 8
)

// loop drives rounds back to back until the deadline has passed and at
// least minRounds were attempted.
func (c *client) loop(deadline time.Time, minRounds int, mds bool, tr *tracer) laneStats {
	st := laneStats{
		latMs:    make([]float64, 0, 1<<15),
		tracedMs: make([]float64, 0, 1<<15),
	}
	for i := 0; i < minRounds || time.Now().Before(deadline); i++ {
		rt := tr
		if (i/traceBlock)%2 == 1 {
			rt = nil
		}
		iter := c.iter
		c.iter++
		mis := !mds && c.mispredicted != nil && c.mispredicted(iter)
		rid := rt.newRound()

		t0 := time.Now()
		root := rt.begin("bench.round", -1, rid)
		sp := rt.begin("sched.plan", root, rid)
		plan, err := c.plan(mds, mis)
		rt.end(sp)
		var rs *rpc.RoundStats
		if err == nil {
			sp = rt.begin("rpc.round", root, rid)
			rs, err = c.round(iter, plan)
			rt.end(sp)
		}
		if err == nil {
			sp = rt.begin("coding.decode", root, rid)
			err = c.decode()
			rt.end(sp)
		}
		rt.end(root)
		ms := float64(time.Since(t0)) / 1e6

		// Checks and counting run after the latency stamp.
		st.attempted++
		if err != nil || !c.check(iter) {
			if st.failed == 0 {
				if err == nil {
					err = errors.New("decode differs from the local product")
				}
				fmt.Fprintf(os.Stderr, "bench: round %d failed: %v\n", iter, err)
			}
			st.failed++
			if st.failed >= maxLaneFailures {
				break
			}
			continue
		}
		if mis {
			st.mispredMs = append(st.mispredMs, ms)
		}
		if rt == nil {
			st.latMs = append(st.latMs, ms)
			continue
		}
		st.tracedMs = append(st.tracedMs, ms)
		st.counted++
		st.reassigned += rs.Reassigned
		st.timedOut += len(rs.TimedOut)
		for _, r := range rs.AssignedRows {
			st.assignedRows += r
		}
		for _, a := range plan.Assignments {
			st.ranges += len(a)
		}
		st.planWorkers += len(plan.Assignments)
		lo, hi := time.Duration(0), time.Duration(0)
		for _, d := range rs.ResponseTime {
			if d <= 0 {
				continue
			}
			if lo == 0 || d < lo {
				lo = d
			}
			if d > hi {
				hi = d
			}
		}
		st.respSpreadMs = append(st.respSpreadMs, float64(hi-lo)/1e6)
	}
	return st
}

// runLane runs every client's loop concurrently for the window and pools
// what they measured. Wall and CPU time are taken around the whole lane.
func runLane(clients []*client, window time.Duration, minRounds int, mds bool, tr *tracer) laneStats {
	var ms0, ms1 runtime.MemStats
	if tr != nil {
		runtime.ReadMemStats(&ms0)
	}
	parts := make([]laneStats, len(clients))
	var wg sync.WaitGroup
	cpu0 := cpuSeconds()
	start := time.Now()
	for i, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			parts[i] = c.loop(start.Add(window), minRounds, mds, tr)
		}()
	}
	wg.Wait()
	total := laneStats{wallS: time.Since(start).Seconds(), cpuS: cpuSeconds() - cpu0}
	if tr != nil {
		runtime.ReadMemStats(&ms1)
		total.mallocs = ms1.Mallocs - ms0.Mallocs
	}
	for i := range parts {
		total.merge(&parts[i])
	}
	return total
}
