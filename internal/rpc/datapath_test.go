package rpc

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/wire"
)

// Tests for the partition data path: chunks sent as a header plus a
// borrowed tail, received header-first and read from the connection
// straight into the partition's rows; and for releasing datasets when a
// job closes or the cluster shuts down.

// streamVictim is a Worker whose connection is an in-memory inbound
// stream (its own sends are discarded), so a test can hand it exact bytes
// and inspect its partition maps after serve returns.
func streamVictim(src io.Reader, maxFrame int) *Worker {
	r := wire.NewReader(src)
	r.SetMaxFrame(maxFrame)
	return newWorker(WorkerConfig{Slowdown: 1, maxResultRows: 4 << 20},
		&wireConn{w: wire.NewWriter(io.Discard), r: r})
}

// heldCopy is p as a worker stores it: a copy in storage of its own.
func heldCopy[C codec[T], T coding.Element](p Partition[T]) *partBuild[T] {
	var ec C
	rows, cols := p.Dims()
	mem := kernel.Map[T](rows * cols)
	copy(mem.Data(), p.Data())
	return &partBuild[T]{m: ec.wrap(rows, cols, mem.Data()), mem: mem}
}

// TestChunksLandIntactThroughFragmentedReads streams a float64 and a GF
// partition through the real send path and delivers the bytes to a worker
// one byte at a time, in halves, and through the production-sized bufio
// layer: however the reads fragment, the published partitions are exact.
func TestChunksLandIntactThroughFragmentedReads(t *testing.T) {
	const rows, cols, chunkRows = 13, 37, 4 // 1184-byte chunks: well past the eager header window
	rng := rand.New(rand.NewSource(5))
	part := mat.Rand(rows, cols, rng)
	gfPart := gf.NewMatrixFromData(rows, cols, make([]gf.Elem, rows*cols))
	for i := range gfPart.Data() {
		gfPart.Data()[i] = gf.New(rng.Uint64())
	}
	var stream bytes.Buffer
	sender := &wireConn{w: wire.NewWriter(&stream)}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(sendPartitionStart[floatCodec](sender, &PartitionStart{Phase: 2, Seq: 9, Rows: rows, Cols: cols, ChunkRows: chunkRows}))
	for lo := 0; lo < rows; lo += chunkRows {
		hi := min(lo+chunkRows, rows)
		must(sendPartitionChunk[floatCodec](sender, 2, 9, lo, hi, part.Data()[lo*cols:hi*cols]))
	}
	must(sendPartitionStart[gfCodec](sender, &PartitionStart{Phase: 3, Seq: 10, Rows: rows, Cols: cols, ChunkRows: chunkRows}))
	for lo := 0; lo < rows; lo += chunkRows {
		hi := min(lo+chunkRows, rows)
		must(sendPartitionChunk[gfCodec](sender, 3, 10, lo, hi, gfPart.Data()[lo*cols:hi*cols]))
	}
	for name, wrap := range map[string]func(io.Reader) io.Reader{
		"onebyte": iotest.OneByteReader,
		"half":    iotest.HalfReader,
		"bufio":   func(r io.Reader) io.Reader { return bufio.NewReaderSize(r, 64<<10) },
	} {
		w := streamVictim(wrap(bytes.NewReader(stream.Bytes())), maxRPCFrame)
		if err := w.serve(); err != io.EOF {
			t.Fatalf("%s: serve = %v, want a clean EOF after the last chunk", name, err)
		}
		got, gfGot := w.float.partitions[2], w.exact.partitions[3]
		if got == nil || gfGot == nil {
			t.Fatalf("%s: partitions not published (float64 %v, GF %v)", name, got != nil, gfGot != nil)
		}
		if !got.m.(*mat.Dense).ApproxEqual(part, 0) {
			t.Fatalf("%s: float64 partition differs from what was sent", name)
		}
		for i, v := range gfGot.m.Data() {
			if v != gfPart.Data()[i] {
				t.Fatalf("%s: GF partition element %d = %d, sent %d", name, i, v, gfPart.Data()[i])
			}
		}
		if len(w.float.pending)+len(w.exact.pending) != 0 {
			t.Fatalf("%s: completed transfers left pending builds behind", name)
		}
	}
}

// TestRejectedChunkLeavesRowsUntouched: every header-level defect — an
// element count that disagrees with the rows, a frame over the size
// limit, a chunk out of row order, a stale transfer sequence — is caught
// before the first body byte lands in the partition being assembled.
func TestRejectedChunkLeavesRowsUntouched(t *testing.T) {
	const rows, cols = 8, 16
	ones := make([]float64, rows*cols)
	for i := range ones {
		ones[i] = 1
	}
	chunk := func(w *wire.Writer, seq, lo, hi int, vals []float64) {
		w.Begin(wire.TypePartitionChunk)
		w.Elem(wire.ElemFloat64)
		w.Int(0)
		w.Int(seq)
		w.Int(lo)
		w.Int(hi)
		w.Float64sTail(vals)
		if err := w.End(); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name     string
		maxFrame int
		send     func(w *wire.Writer)
		want     string
	}{
		{"count above the rows", maxRPCFrame, func(w *wire.Writer) { chunk(w, 1, 0, 2, ones[:3*cols]) }, wire.ErrMalformed.Error()},
		{"count below the rows", maxRPCFrame, func(w *wire.Writer) { chunk(w, 1, 0, 2, ones[:cols]) }, wire.ErrMalformed.Error()},
		{"oversize frame", 256, func(w *wire.Writer) { chunk(w, 1, 0, 4, ones[:4*cols]) }, wire.ErrFrameTooBig.Error()},
		{"out of order", maxRPCFrame, func(w *wire.Writer) { chunk(w, 1, 2, 4, ones[:2*cols]) }, "out of order"},
		{"stale sequence", maxRPCFrame, func(w *wire.Writer) { chunk(w, 7, 0, 2, ones[:2*cols]) }, "transfer in progress is seq 1"},
	}
	for _, tc := range cases {
		var stream bytes.Buffer
		ww := wire.NewWriter(&stream)
		sender := &wireConn{w: ww}
		if err := sendPartitionStart[floatCodec](sender, &PartitionStart{Phase: 0, Seq: 1, Rows: rows, Cols: cols, ChunkRows: 2}); err != nil {
			t.Fatal(err)
		}
		tc.send(ww)
		w := streamVictim(bytes.NewReader(stream.Bytes()), tc.maxFrame)
		err := w.serve()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: serve = %v, want an error containing %q", tc.name, err, tc.want)
		}
		if w.float.partitions[0] != nil {
			t.Fatalf("%s: a rejected chunk published the partition", tc.name)
		}
		b := w.float.pending[0]
		if b == nil || b.remaining != rows {
			t.Fatalf("%s: rejected chunk was counted toward the build", tc.name)
		}
		for i, v := range b.m.Data() {
			if v != 0 {
				t.Fatalf("%s: rejected chunk wrote element %d of the partition", tc.name, i)
			}
		}
	}
}

// TestTruncatedChunkBodyNeverPublishes cuts the stream at every byte of
// the last chunk's body: the worker fails with a connection error and the
// partition — whose rows may be partly written by then — is never
// published, float64 and GF alike.
func TestTruncatedChunkBodyNeverPublishes(t *testing.T) {
	const rows, cols = 4, 12
	vals := make([]float64, rows*cols)
	elems := make([]gf.Elem, rows*cols)
	for i := range vals {
		vals[i] = float64(i + 1)
		elems[i] = gf.Elem(i + 1)
	}
	for _, exact := range []bool{false, true} {
		var stream bytes.Buffer
		sender := &wireConn{w: wire.NewWriter(&stream)}
		ps := &PartitionStart{Phase: 0, Seq: 1, Rows: rows, Cols: cols, ChunkRows: 2}
		var err error
		if exact {
			err = errors.Join(sendPartitionStart[gfCodec](sender, ps),
				sendPartitionChunk[gfCodec](sender, 0, 1, 0, 2, elems[:2*cols]))
		} else {
			err = errors.Join(sendPartitionStart[floatCodec](sender, ps),
				sendPartitionChunk[floatCodec](sender, 0, 1, 0, 2, vals[:2*cols]))
		}
		if err != nil {
			t.Fatal(err)
		}
		lastChunkAt := stream.Len()
		if exact {
			err = sendPartitionChunk[gfCodec](sender, 0, 1, 2, 4, elems[2*cols:])
		} else {
			err = sendPartitionChunk[floatCodec](sender, 0, 1, 2, 4, vals[2*cols:])
		}
		if err != nil {
			t.Fatal(err)
		}
		full := stream.Bytes()
		for cut := lastChunkAt + 1; cut < len(full); cut++ {
			w := streamVictim(bytes.NewReader(full[:cut]), maxRPCFrame)
			if err := w.serve(); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("exact=%v cut at %d of %d: serve = %v, want ErrUnexpectedEOF", exact, cut, len(full), err)
			}
			if len(w.float.partitions)+len(w.exact.partitions) != 0 {
				t.Fatalf("exact=%v cut at %d: a truncated chunk published the partition", exact, cut)
			}
		}
	}
}

// startReleasableCluster is startTestCluster for tests that watch memory
// come back: it hands out the workers and a channel that reports each
// Worker.Run returning.
func startReleasableCluster(t *testing.T, n int) (*Master, []*Worker, chan error) {
	t.Helper()
	m, err := NewMasterWithConfig(MasterConfig{Addr: "127.0.0.1:0", ReuseRound: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Shutdown)
	workers := make([]*Worker, n)
	done := make(chan error, n)
	for i := range workers {
		w, err := NewWorker(WorkerConfig{MasterAddr: m.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
		go func() { done <- w.Run() }()
		if err := m.WaitForWorkers(i+1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return m, workers, done
}

// TestShutdownReleasesDataset is the regression test for the cluster's
// dataset outliving it. The workers' 43 MB copy of the partitions is
// mapped storage they release themselves: after Shutdown and every Run
// returning, the mapped bytes are back where they were before the
// distribute, with no collection. Master and Worker embed sync.Pools,
// which keep them reachable for one GC cycle past their last reference,
// so whatever they still point to at that moment survives a collection:
// ONE collection must bring the heap back to where it was before the
// cluster held 32 MB of partitions.
func TestShutdownReleasesDataset(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector shadow memory is not released on the collector's schedule")
	}
	const n, k, rows, cols = 4, 3, 4096, 1024 // A = 32 MiB
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	runtime.GC()
	runtime.GC()
	before := heap()
	func() {
		m, _, done := startReleasableCluster(t, n)
		code, err := coding.NewMDSCode(n, k)
		if err != nil {
			t.Fatal(err)
		}
		enc := code.Encode(mat.New(rows, cols))
		mapped := kernel.MappedBytes() // with the encoding's parity, which enc keeps
		if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
			t.Fatal(err)
		}
		if held := heap() - before + uint64(kernel.MappedBytes()-mapped); held < 64<<20 {
			t.Fatalf("cluster holds only %d MB after distributing; the test measures nothing", held>>20)
		}
		m.Shutdown()
		for i := 0; i < n; i++ {
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("a worker's Run did not return after Shutdown")
			}
		}
		// At most: an earlier test's encoding may be unmapped meanwhile.
		if left := kernel.MappedBytes() - mapped; left > 0 {
			t.Fatalf("%d MB of worker partitions stay mapped after Shutdown and Run returned", left>>20)
		}
		runtime.KeepAlive(enc)
	}()
	runtime.GC()
	if after := heap(); after > before+4<<20 {
		t.Fatalf("HeapAlloc is %d MB above its pre-cluster value one GC after shutdown, want within 4 MB",
			(after-before)>>20)
	}
}

// TestJobCloseFreesWorkerPartitions: closing a job tells every worker to
// drop that job's partitions — both element types — while the default
// job's dataset stays and its rounds still decode.
func TestJobCloseFreesWorkerPartitions(t *testing.T) {
	const n, k, rows, cols = 4, 3, 90, 8
	m, workers, _ := startReleasableCluster(t, n)
	rng := rand.New(rand.NewSource(11))
	code, err := coding.NewMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	a := mat.Rand(rows, cols, rng)
	enc := code.Encode(a)
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
	}
	j := m.OpenJob(JobConfig{})
	jobEnc := code.Encode(mat.Rand(rows, cols, rng))
	if err := Distribute(context.Background(), j, 0, jobEnc.Parts); err != nil {
		t.Fatal(err)
	}
	gfCode, err := coding.NewGFMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]gf.Elem, rows*cols)
	for i := range data {
		data[i] = gf.New(rng.Uint64())
	}
	gfEnc, err := gfCode.Encode(rows, cols, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := Distribute(context.Background(), j, 1, gfEnc.Parts); err != nil {
		t.Fatal(err)
	}
	wp0, wp1 := j.wirePhase(0), j.wirePhase(1)
	held := func(w *Worker) (float64Parts, gfParts int) {
		w.mu.Lock()
		defer w.mu.Unlock()
		return len(w.float.partitions), len(w.exact.partitions)
	}
	// A worker acknowledges a partition's last chunk before it publishes
	// the partition (both on its serve loop, so no later frame can overtake
	// the publish), and Distribute returns on that ack: wait, don't assert.
	for _, w := range workers {
		waitUntil(t, 5*time.Second, "the worker to publish all three partitions", func() bool {
			f, g := held(w)
			return f == 2 && g == 1
		})
	}

	j.Close()
	// The drop frames are on the wire when Close returns; a ping-free way
	// to know each worker has processed them is to wait on its maps.
	for i, w := range workers {
		waitUntil(t, 5*time.Second, "the worker to drop the closed job's partitions", func() bool {
			f, g := held(w)
			return f == 1 && g == 0
		})
		w.mu.Lock()
		_, stillFloat := w.float.partitions[wp0]
		_, stillGF := w.exact.partitions[wp1]
		_, def := w.float.partitions[0]
		w.mu.Unlock()
		if stillFloat || stillGF || !def {
			t.Fatalf("worker %d after Close: job float64 %v, job GF %v, default job %v", i, stillFloat, stillGF, def)
		}
	}
	m.mu.Lock()
	retained := len(m.parts) + len(m.gfParts)
	m.mu.Unlock()
	if retained != 1 {
		t.Fatalf("master retains %d phases after Close, want the default job's 1", retained)
	}
	if _, _, err := Run(context.Background(), j, RoundSpec[float64]{X: make([]float64, cols), Plan: nil, K: k, TimeoutFrac: 10}); err == nil ||
		!strings.Contains(err.Error(), "no distributed partitions") {
		t.Fatalf("round on a closed job: %v, want the undistributed-phase error", err)
	}

	// The default job is untouched: its round still decodes.
	x := make([]float64, cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows}
	plan, err := strat.Plan(flatSpeeds(n))
	if err != nil {
		t.Fatal(err)
	}
	partials, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{X: x, Plan: plan, K: k, TimeoutFrac: 10})
	if err != nil {
		t.Fatal(err)
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecApproxEqual(got, mat.MatVec(a, x), 1e-9) {
		t.Fatal("default job's round decodes wrong after another job closed")
	}
}

// TestWorkerHandleWorkZeroAllocsSteadyState pins the worker side of a
// round next to the master-side pins: computing an assignment and framing
// its result allocates nothing, for both element types, single-x and
// batched, one range or several — so a Work costs the worker exactly the
// `go` statement that hands it to this handler.
func TestWorkerHandleWorkZeroAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items, forcing reallocation")
	}
	const rows, cols = 600, 40
	rng := rand.New(rand.NewSource(3))
	w := streamVictim(bytes.NewReader(nil), maxRPCFrame)
	w.float.partitions[0] = heldCopy[floatCodec](mat.Rand(rows, cols, rng))
	gfPart := gf.NewMatrixFromData(rows, cols, make([]gf.Elem, rows*cols))
	for i := range gfPart.Data() {
		gfPart.Data()[i] = gf.New(rng.Uint64())
	}
	w.exact.partitions[0] = heldCopy[gfCodec](gfPart)
	// On a single-participant Exec every range is swept by the handler
	// itself; on the default one only ranges within one chunk are — a range
	// that fans out pays for the closure it hands the pool.
	whole := []coding.Range{{Lo: 0, Hi: rows}}
	one := min(40, matVecChunk(cols, 8)) // a single chunk on every backend, at either width
	small := []coding.Range{{Lo: 5, Hi: 5 + one}, {Lo: 200, Hi: 201}, {Lo: 300, Hi: 300 + one}}
	for _, c := range []struct {
		exec   kernel.Exec
		ranges []coding.Range
	}{{kernel.Exec{MaxFan: 1}, whole}, {kernel.Exec{MaxFan: 1}, small}, {kernel.Exec{}, small}} {
		w.cfg.Exec = c.exec
		for _, bw := range []int{1, 8} {
			x := make([]float64, bw*cols)
			gx := make([]gf.Elem, bw*cols)
			round := func() {
				job := fromPool[Work](&w.float.works)
				job.Job, job.Iter, job.Phase, job.W = 1, 4, 0, bw
				job.X = append(job.X[:0], x...)
				job.Ranges = append(job.Ranges[:0], c.ranges...)
				w.float.handle(job)
				gjob := fromPool[GFWork](&w.exact.works)
				gjob.Job, gjob.Iter, gjob.Phase, gjob.W = 1, 4, 0, bw
				gjob.X = append(gjob.X[:0], gx...)
				gjob.Ranges = append(gjob.Ranges[:0], c.ranges...)
				w.exact.handle(gjob)
			}
			round() // warm: pooled slots, result buffers, the writer's scratch
			if allocs := steadyAllocs(50, round); allocs != 0 {
				t.Fatalf("fan %d, width %d, %d ranges: 50 Works + 50 GFWorks allocate %v times on the worker, want 0",
					c.exec.Workers(), bw, len(c.ranges), allocs)
			}
		}
	}
}

// BenchmarkChunkStream ships one 32 MB float64 partition master → worker
// over loopback TCP through the production path (credit window, vectored
// chunk writes, header-first receive into the partition's rows).
func BenchmarkChunkStream(b *testing.B) {
	const rows, cols = 4096, 1024
	m, err := NewMasterWithConfig(MasterConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Shutdown()
	w, err := NewWorker(WorkerConfig{MasterAddr: m.Addr()})
	if err != nil {
		b.Fatal(err)
	}
	go w.Run() //nolint:errcheck // Shutdown ends it
	if err := m.WaitForWorkers(1, 5*time.Second); err != nil {
		b.Fatal(err)
	}
	part := mat.Rand(rows, cols, rand.New(rand.NewSource(1)))
	wc := m.conns()[0]
	b.SetBytes(8 * rows * cols)
	b.ReportAllocs()
	for b.Loop() {
		if err := ship[floatCodec](m, wc, 0, part, m.stallTimeout()); err != nil {
			b.Fatal(err)
		}
	}
}
