package rpc

// testcluster_test.go is the shared in-process cluster harness of the rpc
// tests: one master plus n loopback workers, connected sequentially so
// worker IDs are deterministic, with optional per-worker fault injection.
// The historical helpers startCluster (rpc_test.go) and startClusterCfg
// (wire_test.go) are thin wrappers over startTestCluster, so every round,
// wire, and race test runs on this harness.
//
// Faults are injected by a byte-level TCP proxy spliced into the faulted
// worker's link. The worker→master direction is forwarded transparently
// (handshake included); the master→worker direction is re-framed one
// frame (uvarint length + body) at a time so faults trigger on frame
// boundaries.

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/wire"
)

// workerFault describes one worker's link faults. The zero value injects
// nothing. Frame counts refer to master→worker wire frames (partition
// starts, chunks, work messages) forwarded so far.
type workerFault struct {
	// dropAfterFrames severs the link — both directions — once N frames
	// have been forwarded: the mid-stream connection drop.
	dropAfterFrames int
	// stallAfterFrames stops delivering frames to the worker after N,
	// while keeping the link open and draining the master side: the
	// worker goes silent (no acks, no results) without a visible drop.
	stallAfterFrames int
	// frameDelay sleeps before forwarding each frame: a slow reader whose
	// acks and results arrive late.
	frameDelay time.Duration
	// holdWork, when set, keeps each Work frame from the worker until the
	// channel is closed: a worker that cannot answer a round, however the
	// host schedules it, until the test lets it.
	holdWork <-chan struct{}
}

// clusterConfig configures startTestCluster. Zero values mean defaults:
// loopback master, default worker configs, no faults.
type clusterConfig struct {
	master MasterConfig
	worker func(i int) WorkerConfig
	faults map[int]*workerFault
}

// startTestCluster spins up a master plus n in-process workers on
// loopback and returns the master (shut down via t.Cleanup). Workers
// connect one at a time: the master assigns IDs in admission order, so
// per-index configs and faults are pinned to the intended worker IDs.
func startTestCluster(t *testing.T, n int, cc clusterConfig) *Master {
	t.Helper()
	if cc.master.Addr == "" {
		cc.master.Addr = "127.0.0.1:0"
	}
	m, err := NewMasterWithConfig(cc.master)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	for i := 0; i < n; i++ {
		cfg := WorkerConfig{}
		if cc.worker != nil {
			cfg = cc.worker(i)
		}
		cfg.MasterAddr = m.Addr()
		if f := cc.faults[i]; f != nil {
			cfg.MasterAddr = startFaultProxy(t, m.Addr(), f)
		}
		go func() {
			w, err := NewWorker(cfg)
			if err != nil {
				// The dial raced cluster teardown (or a fault proxy closing);
				// the test that needed this worker fails on WaitForWorkers.
				return
			}
			w.Run() //nolint:errcheck // shutdown (or an injected fault) closes the conn
		}()
		if err := m.WaitForWorkers(i+1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// startFaultProxy listens for exactly one worker connection and splices it
// to the master through the fault spec, returning the address the worker
// should dial.
func startFaultProxy(t *testing.T, masterAddr string, f *workerFault) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		wc, err := ln.Accept()
		if err != nil {
			return
		}
		mc, err := net.Dial("tcp", masterAddr)
		if err != nil {
			wc.Close()
			return
		}
		var closeOnce sync.Once
		closeBoth := func() {
			closeOnce.Do(func() {
				wc.Close()
				mc.Close()
			})
		}
		t.Cleanup(closeBoth)
		// worker → master: transparent byte pump (handshake included).
		go func() {
			defer closeBoth()
			io.Copy(mc, wc) //nolint:errcheck
		}()
		// master → worker: frame-parsed pump with fault injection.
		pumpFaultedFrames(wc, mc, f, closeBoth)
	}()
	return ln.Addr().String()
}

// pumpFaultedFrames forwards master→worker wire frames one at a time,
// applying the fault spec at frame boundaries.
func pumpFaultedFrames(dst, src net.Conn, f *workerFault, closeBoth func()) {
	defer closeBoth()
	br := bufio.NewReader(src)
	var buf []byte
	var head [binary.MaxVarintLen64]byte
	forwarded := 0
	for {
		size, err := binary.ReadUvarint(br)
		if err != nil || size > maxRPCFrame {
			return
		}
		if cap(buf) < int(size) {
			buf = make([]byte, size)
		}
		buf = buf[:size]
		if _, err := io.ReadFull(br, buf); err != nil {
			return
		}
		if f.dropAfterFrames > 0 && forwarded >= f.dropAfterFrames {
			return // the deferred close severs both directions mid-stream
		}
		if f.stallAfterFrames > 0 && forwarded >= f.stallAfterFrames {
			// Swallow this frame and everything after it: the master sees
			// a healthy connection that simply stops acking and answering.
			io.Copy(io.Discard, br) //nolint:errcheck
			return
		}
		if f.frameDelay > 0 {
			time.Sleep(f.frameDelay)
		}
		if f.holdWork != nil && wire.Type(buf[0]) == wire.TypeWork {
			<-f.holdWork
		}
		n := binary.PutUvarint(head[:], size)
		if _, err := dst.Write(head[:n]); err != nil {
			return
		}
		if _, err := dst.Write(buf); err != nil {
			return
		}
		forwarded++
	}
}

// ---------------------------------------------------------------------------
// Fault-injection tests: the per-worker error-attribution contract of the
// distribution path.

// TestDistributePartitionsNamesDroppedWorker pins the attribution fix: a
// connection dropped mid-way through a chunked partition transfer must
// fail Distribute promptly with a *PartitionError naming the
// dropped worker, so a retry layer can re-stream exactly that transfer.
func TestDistributePartitionsNamesDroppedWorker(t *testing.T) {
	const n = 3
	m := startTestCluster(t, n, clusterConfig{
		master: MasterConfig{ChunkRows: 1, ChunkWindow: 1, StallTimeout: 10 * time.Second},
		faults: map[int]*workerFault{1: {dropAfterFrames: 3}},
	})
	rng := rand.New(rand.NewSource(90))
	a := mat.Rand(24, 3, rng)
	code, err := coding.NewMDSCode(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	enc := code.Encode(a)
	start := time.Now()
	err = Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Distribute succeeded despite a mid-stream drop")
	}
	var pe *PartitionError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not carry a *PartitionError", err)
	}
	if pe.Worker != 1 {
		t.Fatalf("PartitionError names worker %d, want 1", pe.Worker)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("failure took %v — detected by the stall deadline, not the dead connection", elapsed)
	}
}

// TestDistributePartitionsAttributesStalledWorker covers the second
// failure shape: a worker that stays connected but goes silent (no chunk
// acks). The transfer must fail on the credit stall deadline, again naming
// the worker.
func TestDistributePartitionsAttributesStalledWorker(t *testing.T) {
	const n = 2
	m := startTestCluster(t, n, clusterConfig{
		master: MasterConfig{ChunkRows: 1, ChunkWindow: 1, StallTimeout: 200 * time.Millisecond},
		faults: map[int]*workerFault{0: {stallAfterFrames: 2}},
	})
	rng := rand.New(rand.NewSource(91))
	a := mat.Rand(16, 2, rng)
	code, err := coding.NewMDSCode(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	enc := code.Encode(a)
	err = Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts)
	if err == nil {
		t.Fatal("Distribute succeeded despite a stalled worker")
	}
	var pe *PartitionError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v does not carry a *PartitionError", err)
	}
	if pe.Worker != 0 {
		t.Fatalf("PartitionError names worker %d, want 0", pe.Worker)
	}
	if !strings.Contains(err.Error(), "credit") {
		t.Fatalf("stalled transfer error should mention the missing credit, got: %v", err)
	}
}

// TestDistributePartitionsAggregatesFailures checks that several broken
// workers are all named: the joined error exposes each *PartitionError.
func TestDistributePartitionsAggregatesFailures(t *testing.T) {
	const n = 3
	m := startTestCluster(t, n, clusterConfig{
		master: MasterConfig{ChunkRows: 1, ChunkWindow: 1, StallTimeout: 10 * time.Second},
		faults: map[int]*workerFault{
			0: {dropAfterFrames: 2},
			2: {dropAfterFrames: 3},
		},
	})
	rng := rand.New(rand.NewSource(92))
	a := mat.Rand(30, 2, rng)
	code, err := coding.NewMDSCode(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	enc := code.Encode(a)
	err = Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts)
	if err == nil {
		t.Fatal("Distribute succeeded despite two dropped workers")
	}
	workers := map[int]bool{}
	var walk func(error)
	walk = func(e error) {
		var pe *PartitionError
		if errors.As(e, &pe) {
			workers[pe.Worker] = true
		}
		if joined, ok := e.(interface{ Unwrap() []error }); ok {
			for _, sub := range joined.Unwrap() {
				walk(sub)
			}
		}
	}
	walk(err)
	if !workers[0] || !workers[2] {
		t.Fatalf("aggregated error names workers %v, want both 0 and 2 (err: %v)", workers, err)
	}
	if workers[1] {
		t.Fatalf("healthy worker 1 was blamed: %v", err)
	}
}

// TestSlowReaderRoundStillCompletes exercises the slow-reader fault: a
// worker whose inbound frames are delayed must slow the round, not break
// it — distribution and decode stay correct.
func TestSlowReaderRoundStillCompletes(t *testing.T) {
	const n, k = 3, 2
	m := startTestCluster(t, n, clusterConfig{
		faults: map[int]*workerFault{2: {frameDelay: 2 * time.Millisecond}},
	})
	rng := rand.New(rand.NewSource(93))
	a := mat.Rand(24, 4, rng)
	x := []float64{1, -2, 0.5, 3}
	code, err := coding.NewMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	enc := code.Encode(a)
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
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
		t.Fatal("decode mismatch behind a slow-reader fault")
	}
}
