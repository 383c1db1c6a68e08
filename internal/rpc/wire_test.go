package rpc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"net"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/wire"
)

// startClusterCfg is startCluster with explicit master and worker config
// control (streaming knobs, stall deadline, worker delays) — a thin
// wrapper over the shared testcluster harness.
func startClusterCfg(t *testing.T, n int, mcfg MasterConfig, wcfg func(i int) WorkerConfig) *Master {
	t.Helper()
	return startTestCluster(t, n, clusterConfig{master: mcfg, worker: wcfg})
}

// TestChunkedDistributionTinyChunks forces many-chunk streams (one row
// per chunk, window 2) and checks the reassembled partitions compute the
// right products — the credit-based flow control path under maximal
// chunking.
func TestChunkedDistributionTinyChunks(t *testing.T) {
	n, k := 3, 2
	m := startClusterCfg(t, n, MasterConfig{ChunkRows: 1, ChunkWindow: 2},
		func(i int) WorkerConfig { return WorkerConfig{} })
	rng := rand.New(rand.NewSource(79))
	a := mat.Rand(30, 4, rng)
	x := []float64{0.25, -1, 2, 0.5}
	code, _ := coding.NewMDSCode(n, k)
	enc := code.Encode(a)
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
	}
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows, Granularity: enc.BlockRows}
	plan, _ := strat.Plan([]float64{1, 1, 1})
	partials, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{X: x, Plan: plan, K: k, TimeoutFrac: 10.0})
	if err != nil {
		t.Fatal(err)
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecApproxEqual(got, mat.MatVec(a, x), 1e-8) {
		t.Fatal("decode mismatch after tiny-chunk distribution")
	}
}

// TestHandshakeVersionMismatch pins the handshake rejection path: clients
// with the wrong magic or any version byte but wire.VersionWire (0 and 1
// included) are turned away at once, without wedging the master, which
// keeps serving well-formed workers.
func TestHandshakeVersionMismatch(t *testing.T) {
	m, err := NewMaster("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)

	dial := func(hello []byte) net.Conn {
		c, err := net.Dial("tcp", m.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if _, err := c.Write(hello); err != nil {
			t.Fatal(err)
		}
		return c
	}
	rejected := map[string]net.Conn{
		"bad version": dial([]byte{'S', '2', 'C', '2', 99}),
		"version 0":   dial([]byte{'S', '2', 'C', '2', 0}),
		"version 1":   dial([]byte{'S', '2', 'C', '2', 1}),
		"bad magic":   dial([]byte("GARBAGE!!")),
	}

	// A real worker must still be admitted after the rejects.
	go func() {
		w, err := NewWorker(WorkerConfig{MasterAddr: m.Addr()})
		if err != nil {
			t.Error(err)
			return
		}
		w.Run() //nolint:errcheck
	}()
	if err := m.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatalf("master did not survive handshake rejects: %v", err)
	}
	if got := m.NumWorkers(); got != 1 {
		t.Fatalf("NumWorkers = %d, want 1 (rejected conns must not register)", got)
	}

	// Every rejected connection must have been closed by the master
	// promptly: within 1 s, well inside handshakeTimeout, which a conn held
	// open awaiting a hello would run out instead.
	for name, c := range rejected {
		c.SetReadDeadline(time.Now().Add(time.Second)) //nolint:errcheck
		_, err := c.Read(make([]byte, 1))
		if err == nil {
			t.Fatalf("%s conn still open after reject", name)
		}
		if errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("%s conn not closed within 1s (handshake timeout is %v)", name, handshakeTimeout)
		}
	}

	// A wait that times out names the last rejected handshake.
	err = m.WaitForWorkers(2, 300*time.Millisecond)
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("WaitForWorkers past the rejects: %v, want os.ErrDeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "last rejected conn: ") {
		t.Fatalf("timeout error names no rejected handshake: %v", err)
	}
}

// TestWorkerRejectsCorruptFrames pins the worker-side framing guards: an
// oversized length prefix and a truncated frame must both surface as
// errors from Run, not decode garbage.
func TestWorkerRejectsCorruptFrames(t *testing.T) {
	cases := []struct {
		name string
		send func(c net.Conn)
		want string
	}{
		{
			name: "oversized length prefix",
			send: func(c net.Conn) {
				c.Write(binary.AppendUvarint(nil, uint64(maxRPCFrame)+1)) //nolint:errcheck
			},
			want: "size limit",
		},
		{
			name: "truncated frame",
			send: func(c net.Conn) {
				// Declare a 100-byte body, deliver 3, then close.
				b := binary.AppendUvarint(nil, 100)
				b = append(b, byte(wire.TypeWork), 0, 0)
				c.Write(b) //nolint:errcheck
				c.Close()
			},
			want: "unexpected EOF",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			done := make(chan error, 1)
			go func() {
				w, err := NewWorker(WorkerConfig{MasterAddr: ln.Addr().String()})
				if err != nil {
					done <- err
					return
				}
				done <- w.Run()
			}()
			c, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if _, err := wire.ReadHandshake(c); err != nil {
				t.Fatal(err)
			}
			// Consume the hello frame so the stream position is clean.
			r := wire.NewReader(c)
			if typ, _, err := r.Next(); err != nil || typ != wire.TypeHello {
				t.Fatalf("hello: %v %v", typ, err)
			}
			tc.send(c)
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("worker exited with %v, want error containing %q", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("worker did not exit on corrupt frame")
			}
		})
	}
}

// TestLargeResultsSplitAcrossMessages pins the result-size ceiling fix: a
// result larger than maxResultRows must arrive as several range-aligned
// Result messages (each a bounded frame), and the round must gather and
// decode them exactly as if the result were monolithic.
func TestLargeResultsSplitAcrossMessages(t *testing.T) {
	n, k := 3, 2
	m := startClusterCfg(t, n, MasterConfig{}, func(i int) WorkerConfig {
		return WorkerConfig{maxResultRows: 7} // force splitting on a laptop-sized fixture
	})
	rng := rand.New(rand.NewSource(82))
	a := mat.Rand(60, 4, rng) // blockRows 30 >> 7: every worker splits
	x := []float64{1, -0.5, 2, 0.25}
	code, _ := coding.NewMDSCode(n, k)
	enc := code.Encode(a)
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
	}
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows, Granularity: enc.BlockRows}
	plan, _ := strat.Plan([]float64{1, 1, 1})
	partials, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{X: x, Plan: plan, K: k, TimeoutFrac: 10.0})
	if err != nil {
		t.Fatal(err)
	}
	perWorker := map[int]int{}
	for _, p := range partials {
		perWorker[p.Worker]++
	}
	for w, c := range perWorker {
		if c < 2 {
			t.Fatalf("worker %d delivered %d partials; expected split results", w, c)
		}
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecApproxEqual(got, mat.MatVec(a, x), 1e-8) {
		t.Fatal("decode mismatch over split results")
	}
}

// TestWorkerRejectsOutOfOrderChunks pins the sequential-streaming guard:
// a duplicate chunk could otherwise drive the remaining-row count to zero
// and publish a partition whose uncovered rows are silently zero. The
// worker must treat it as a protocol error instead.
func TestWorkerRejectsOutOfOrderChunks(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		w, err := NewWorker(WorkerConfig{MasterAddr: ln.Addr().String()})
		if err != nil {
			done <- err
			return
		}
		done <- w.Run()
	}()
	c, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := wire.ReadHandshake(c); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(c)
	if typ, _, err := r.Next(); err != nil || typ != wire.TypeHello {
		t.Fatalf("hello: %v %v", typ, err)
	}
	w := wire.NewWriter(c)
	w.Begin(wire.TypePartitionStart)
	w.Elem(wire.ElemFloat64)
	w.Int(0) // phase
	w.Int(1) // seq
	w.Int(4) // rows
	w.Int(1) // cols
	w.Int(2) // chunk rows
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	sendChunk := func(lo, hi int) {
		w.Begin(wire.TypePartitionChunk)
		w.Elem(wire.ElemFloat64)
		w.Int(0) // phase
		w.Int(1) // seq
		w.Int(lo)
		w.Int(hi)
		w.Float64s(make([]float64, hi-lo))
		if err := w.End(); err != nil {
			t.Fatal(err)
		}
	}
	sendChunk(0, 2)
	sendChunk(0, 2) // duplicate: would complete the row count without rows [2,4)
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "out of order") {
			t.Fatalf("worker exited with %v, want out-of-order chunk error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not reject the duplicate chunk")
	}
}

// TestDistributePartitionsConnDropMidStream drops the connection in the
// middle of a chunked partition transfer: Distribute must fail
// promptly (the reader's death signal, not the stall deadline, ends the
// wait) and report the transfer error.
func TestDistributePartitionsConnDropMidStream(t *testing.T) {
	m, err := NewMasterWithConfig(MasterConfig{
		Addr:         "127.0.0.1:0",
		ChunkRows:    1,
		ChunkWindow:  2,
		StallTimeout: 10 * time.Second, // must NOT be what bounds this test
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)

	// A hand-rolled wire client: handshake + hello, ack the first two
	// chunks, then drop the connection mid-stream.
	go func() {
		c, err := net.Dial("tcp", m.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		defer c.Close()
		if err := wire.WriteHandshake(c, wire.VersionWire); err != nil {
			t.Error(err)
			return
		}
		w := wire.NewWriter(c)
		w.Begin(wire.TypeHello)
		w.Float64(1)
		if err := w.End(); err != nil {
			t.Error(err)
			return
		}
		r := wire.NewReader(c)
		acked := 0
		for {
			typ, p, err := r.Next()
			if err != nil {
				return // master closed on us after the failure: fine
			}
			if typ != wire.TypePartitionChunk {
				continue
			}
			p.Elem()
			phase, seq := p.Int(), p.Int()
			if acked >= 2 {
				return // defer closes the conn mid-stream
			}
			acked++
			w.Begin(wire.TypePartitionAck)
			w.Int(phase)
			w.Int(seq)
			if err := w.End(); err != nil {
				return
			}
		}
	}()
	if err := m.WaitForWorkers(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	a := mat.NewFromRows([][]float64{{1}, {2}, {3}, {4}, {5}, {6}, {7}, {8}})
	code, _ := coding.NewMDSCode(1, 1)
	enc := code.Encode(a)
	start := time.Now()
	err = Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Distribute succeeded despite a mid-stream connection drop")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("failure took %v — the drop was detected by the stall deadline, not the dead connection", elapsed)
	}
	// The partition must not have been installed for rounds.
	plan := &sched.Plan{BlockRows: enc.BlockRows, Assignments: [][]coding.Range{{{Lo: 0, Hi: enc.BlockRows}}}}
	if _, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{X: []float64{1}, Plan: plan, K: 1, TimeoutFrac: 1.0}); err == nil {
		t.Fatal("round ran against a partition whose transfer failed")
	}
}

// TestRunRoundContextCancel pins per-round cancellation: a canceled
// context must end the round promptly with the context's error while the
// cluster stays usable for the next round — for a float64 round on the
// default job and for a width-4 GF round on an opened job.
func TestRunRoundContextCancel(t *testing.T) {
	n, k := 2, 2
	m := startClusterCfg(t, n, MasterConfig{}, func(i int) WorkerConfig {
		return WorkerConfig{PerRowDelay: 20 * time.Millisecond} // slow enough to outlive the ctx
	})
	rng := rand.New(rand.NewSource(80))
	a := mat.Rand(40, 4, rng)
	x := []float64{1, 2, 3, 4}
	code, _ := coding.NewMDSCode(n, k)
	enc := code.Encode(a)
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
	}
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows, Granularity: enc.BlockRows}
	plan, _ := strat.Plan([]float64{1, 1})

	const w = 4
	data := randElems(rng, 40*4)
	gcode, _ := coding.NewGFMDSCode(n, k)
	genc, err := gcode.Encode(40, 4, data)
	if err != nil {
		t.Fatal(err)
	}
	job := m.OpenJob(JobConfig{})
	if err := Distribute(context.Background(), job, 0, genc.Parts); err != nil {
		t.Fatal(err)
	}
	xs := randElems(rng, w*4)

	// Each row's run does one round under ctx and returns the round's
	// error; a round that completes must decode to the local product.
	for _, c := range []struct {
		name string
		run  func(t *testing.T, ctx context.Context, iter int) error
	}{
		{"float64", func(t *testing.T, ctx context.Context, iter int) error {
			partials, _, err := Run(ctx, m.DefaultJob(), RoundSpec[float64]{Iter: iter, X: x, Plan: plan, K: k, TimeoutFrac: 10.0})
			if err != nil {
				return err
			}
			got, err := enc.DecodeMatVec(partials)
			if err != nil {
				t.Fatal(err)
			}
			if !mat.VecApproxEqual(got, mat.MatVec(a, x), 1e-8) {
				t.Fatal("decode mismatch on the round after a cancellation")
			}
			return nil
		}},
		{"gf-width4-job", func(t *testing.T, ctx context.Context, iter int) error {
			partials, _, err := Run(ctx, job, RoundSpec[gf.Elem]{Iter: iter, X: xs, Width: w, Plan: plan, K: k, TimeoutFrac: 10.0})
			if err != nil {
				return err
			}
			got, err := genc.DecodeMatVec(partials)
			if err != nil {
				t.Fatal(err)
			}
			for l := 0; l < w; l++ {
				want := gfGroundTruth(40, 4, data, xs[l*4:(l+1)*4])
				for r := range want {
					if got[r*w+l] != want[r] {
						t.Fatalf("lane %d row %d decodes to %d after a cancellation, local compute says %d", l, r, got[r*w+l], want[r])
					}
				}
			}
			return nil
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			start := time.Now()
			err := c.run(t, ctx, 0)
			if err == nil {
				t.Fatal("canceled round returned no error")
			}
			if !strings.Contains(err.Error(), "canceled") && !strings.Contains(err.Error(), "deadline") {
				t.Fatalf("unexpected cancellation error: %v", err)
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("cancellation took %v", elapsed)
			}

			// The cluster must still complete a later round (the canceled
			// round's late results are discarded by the stale filter).
			if err := c.run(t, context.Background(), 1); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMasterStallTimeoutConfigurable pins the MasterConfig.StallTimeout
// knob: a round against workers that never respond must fail after the
// configured deadline, not the 30-second default.
func TestMasterStallTimeoutConfigurable(t *testing.T) {
	n, k := 2, 2
	m := startClusterCfg(t, n, MasterConfig{StallTimeout: 100 * time.Millisecond},
		func(i int) WorkerConfig {
			return WorkerConfig{PerRowDelay: time.Second} // effectively never responds
		})
	rng := rand.New(rand.NewSource(81))
	a := mat.Rand(20, 4, rng)
	code, _ := coding.NewMDSCode(n, k)
	enc := code.Encode(a)
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
	}
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows, Granularity: enc.BlockRows}
	plan, _ := strat.Plan([]float64{1, 1})
	start := time.Now()
	_, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{X: []float64{1, 1, 1, 1}, Plan: plan, K: k, TimeoutFrac: 10.0})
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("err = %v, want stall", err)
	}
	if elapsed < 80*time.Millisecond || elapsed > 5*time.Second {
		t.Fatalf("stall fired after %v with a 100ms configured deadline", elapsed)
	}
}

// TestMasterWireRoundZeroAllocsSteadyState is the transport acceptance
// criterion: a steady-state round on the master — sending the work
// assignments, receiving every result frame through the wire transport,
// gathering, and decoding — allocates nothing. The harness drives the
// master-side wireConn synchronously over an in-memory byte stream so the
// measurement covers exactly the master's per-round path (frame encode,
// frame decode into pooled slots, gather bookkeeping, decode).
func TestMasterWireRoundZeroAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items, forcing reallocation")
	}
	enc, results, want := gatherFixture(t)
	n, k := 10, 8

	// Pre-encode the round's result frames once, as the workers would.
	var stream bytes.Buffer
	sender := &wireConn{w: wire.NewWriter(&stream)}
	for _, r := range results {
		if err := sender.sendResult(r); err != nil {
			t.Fatal(err)
		}
	}
	src := bytes.NewReader(stream.Bytes())
	tc := &wireConn{w: wire.NewWriter(io.Discard), r: wire.NewReader(src)}

	m := &Master{cfg: MasterConfig{ReuseRound: true}}
	decWS := enc.NewDecodeWorkspace()
	dst := make([]float64, enc.OrigRows)
	x := make([]float64, enc.Cols)
	assignment := []coding.Range{{Lo: 0, Hi: enc.BlockRows}}
	msg := &Msg{}

	runRound := func() {
		ws := &m.def.float.round
		m.def.float.recycle()
		ws.begin(n, enc.BlockRows, k, 1)
		// Send tasks: one work frame per active worker.
		for w := 0; w < n; w++ {
			ws.workMsg = Work{Iter: 0, Phase: 0, W: 1, X: x, Ranges: assignment}
			if err := tc.sendWork(&ws.workMsg); err != nil {
				t.Fatal(err)
			}
		}
		// Receive results: decode each frame into a pooled slot (the
		// readLoop's swap idiom) and gather.
		src.Reset(stream.Bytes())
		for range results {
			if err := tc.recv(msg); err != nil {
				t.Fatal(err)
			}
			if msg.Kind != KindResult {
				t.Fatalf("kind %d", msg.Kind)
			}
			r := fromPool[Result](&m.def.float.pool)
			*r, msg.Result = msg.Result, *r
			if err := ws.addResult(r, time.Millisecond); err != nil {
				t.Fatal(err)
			}
			ws.retained = append(ws.retained, r)
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
	runRound() // warm: sizes buffers, pools the result slots, factors the decode set
	if !mat.VecApproxEqual(dst, want, 1e-8) {
		t.Fatal("wire round fixture produced a wrong result")
	}
	allocs := steadyAllocs(50, runRound)
	if allocs != 0 {
		t.Fatalf("50 steady-state wire rounds allocate %v times on the master, want 0", allocs)
	}
}
