package rpc

// gffuzz_test.go: the partition-stream fuzz target and deterministic
// edge-case tests for GF(2³¹−1) frames, mirroring the float64 wire
// edge-case suite — truncation at every cut point, non-canonical lanes,
// and duplicate/out-of-order chunk streams must surface as protocol
// errors, never as panics or silently-corrupt partitions.

import (
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/wire"
)

// dialGFVictim starts a real worker against a hand-rolled master socket
// and returns the accepted conn (handshake + hello consumed), a framer
// pair, and the worker's exit channel.
func dialGFVictim(t *testing.T) (net.Conn, *wire.Writer, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
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
	t.Cleanup(func() { c.Close() })
	if _, err := wire.ReadHandshake(c); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(c)
	if typ, _, err := r.Next(); err != nil || typ != wire.TypeHello {
		t.Fatalf("hello: %v %v", typ, err)
	}
	return c, wire.NewWriter(c), done
}

func sendGFStart(t *testing.T, w *wire.Writer, phase, seq, rows, cols, chunkRows int) {
	t.Helper()
	w.Begin(wire.TypePartitionStart)
	w.Elem(wire.ElemGF)
	w.Int(phase)
	w.Int(seq)
	w.Int(rows)
	w.Int(cols)
	w.Int(chunkRows)
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
}

func sendGFChunk(t *testing.T, w *wire.Writer, phase, seq, lo, hi int, vals []uint32) {
	t.Helper()
	w.Begin(wire.TypePartitionChunk)
	w.Elem(wire.ElemGF)
	w.Int(phase)
	w.Int(seq)
	w.Int(lo)
	w.Int(hi)
	w.Uint32s(vals)
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
}

func expectWorkerError(t *testing.T, done chan error, want string) {
	t.Helper()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("worker exited with %v, want error containing %q", err, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("worker did not exit (want error containing %q)", want)
	}
}

// TestWorkerRejectsOutOfOrderGFChunks is the GF mirror of the float64
// sequential-streaming guard: a duplicate chunk could otherwise drive the
// remaining-row count to zero and publish a partition whose uncovered
// rows are silently zero.
func TestWorkerRejectsOutOfOrderGFChunks(t *testing.T) {
	_, w, done := dialGFVictim(t)
	sendGFStart(t, w, 0, 1, 4, 1, 2)
	sendGFChunk(t, w, 0, 1, 0, 2, []uint32{1, 2})
	sendGFChunk(t, w, 0, 1, 0, 2, []uint32{1, 2}) // duplicate
	expectWorkerError(t, done, "out of order")
}

// TestWorkerRejectsNonCanonicalGFChunk pins the canonicality guard: a
// lane ≥ P would break the Mersenne-folded arithmetic's overflow bounds,
// so it must be a protocol error at ingest.
func TestWorkerRejectsNonCanonicalGFChunk(t *testing.T) {
	_, w, done := dialGFVictim(t)
	sendGFStart(t, w, 0, 1, 2, 1, 2)
	sendGFChunk(t, w, 0, 1, 0, 2, []uint32{uint32(gf.P), 0}) // P itself is out of range
	expectWorkerError(t, done, "non-canonical")
}

// TestWorkerRejectsHostileGFPartitionStart pins the dimension guard: a
// header whose Rows·Cols exceeds the element bound is rejected before any
// allocation (the bounds check divides, so it cannot be overflowed).
func TestWorkerRejectsHostileGFPartitionStart(t *testing.T) {
	_, w, done := dialGFVictim(t)
	sendGFStart(t, w, 0, 1, 1<<20, 1<<20, 64) // 2⁴⁰ elements
	expectWorkerError(t, done, "rejected")
}

// TestWorkerRejectsGFChunkCountMismatch pins the exact-count contract of
// the zero-copy chunk decode: a chunk claiming rows [0,2) of a 1-column
// partition but carrying three elements must fail, not spill.
func TestWorkerRejectsGFChunkCountMismatch(t *testing.T) {
	_, w, done := dialGFVictim(t)
	sendGFStart(t, w, 0, 1, 4, 1, 2)
	sendGFChunk(t, w, 0, 1, 0, 2, []uint32{1, 2, 3}) // 3 values for 2 rows
	expectWorkerError(t, done, "malformed")
}

// buildGFResultStream encodes one valid GF result frame stream.
func buildGFResultStream(tb testing.TB) []byte {
	var buf bytes.Buffer
	c := &wireConn{w: wire.NewWriter(&buf)}
	res := &GFResult{
		Iter: 3, Phase: 1, Worker: 2, RowWidth: 1, ComputeNanos: 12345,
		Ranges: []coding.Range{{Lo: 0, Hi: 4}},
		Values: []gf.Elem{1, 2, 3, gf.Elem(gf.P - 1)},
	}
	if err := c.sendResult(res); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestGFResultFrameTruncatedAtEveryCut cuts a valid GF result frame at
// every byte boundary: the master-side decode must error (truncation or
// EOF), never decode garbage or panic.
func TestGFResultFrameTruncatedAtEveryCut(t *testing.T) {
	full := buildGFResultStream(t)
	for cut := 0; cut < len(full); cut++ {
		tc := &wireConn{w: wire.NewWriter(io.Discard), r: wire.NewReader(bytes.NewReader(full[:cut]))}
		msg := &Msg{}
		if err := tc.recv(msg); err == nil {
			t.Fatalf("cut at %d decoded without error", cut)
		}
	}
	// The uncut frame decodes cleanly.
	tc := &wireConn{w: wire.NewWriter(io.Discard), r: wire.NewReader(bytes.NewReader(full))}
	msg := &Msg{}
	if err := tc.recv(msg); err != nil || msg.Kind != KindGFResult {
		t.Fatalf("full frame: kind %d err %v", msg.Kind, err)
	}
	if len(msg.GFResult.Values) != 4 || msg.GFResult.Values[3] != gf.Elem(gf.P-1) {
		t.Fatalf("decoded values %v", msg.GFResult.Values)
	}
}

// TestGFResultHostileElementCount runs the hostile value count on the GF
// Work and Result frames.
func TestGFResultHostileElementCount(t *testing.T) {
	checkHostileElementCount(t, wire.ElemGF)
}

// FuzzGFResultFrame runs the frame-decoder checks of FuzzBatchResultFrame
// from a GF corpus: one width-1 GF result, its truncations, an empty
// stream, and GF frames with a hostile count or elem.
func FuzzGFResultFrame(f *testing.F) {
	valid := buildGFResultStream(f)
	f.Add(valid)
	for _, cut := range []int{1, len(valid) / 2, len(valid) - 1} {
		f.Add(append([]byte(nil), valid[:cut]...))
	}
	f.Add([]byte{})
	f.Add(hostileFrame(f, wire.TypeResult, int(wire.ElemGF), 0, 1, 1<<40))
	f.Add(hostileFrame(f, wire.TypeResult, int(wire.ElemGF)+1, 0, 1, 0))
	fuzzFrameDecoder(f)
}

// buildChunkSeed builds one seed stream of elem's partition frames for
// the chunk-assembly fuzzer. variant 0 is a fully valid stream; the others
// are canonical corruptions (duplicate chunk, gap, count mismatch, and for
// GF a non-canonical lane).
func buildChunkSeed(tb testing.TB, elem wire.Elem, variant int) []byte {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	frame := func(typ wire.Type, fields ...int) {
		w.Begin(typ)
		w.Elem(elem)
		for _, f := range fields {
			w.Int(f)
		}
	}
	end := func() {
		if err := w.End(); err != nil {
			tb.Fatal(err)
		}
	}
	chunk := func(lo, hi int, vals ...uint32) {
		frame(wire.TypePartitionChunk, 0, 1, lo, hi) // phase, seq, lo, hi
		if elem == wire.ElemGF {
			w.Uint32s(vals)
		} else {
			fs := make([]float64, len(vals))
			for i, v := range vals {
				fs[i] = float64(v)
			}
			w.Float64s(fs)
		}
		end()
	}
	frame(wire.TypePartitionStart, 0, 1, 4, 1, 2) // phase, seq, rows, cols, chunk rows
	end()
	switch variant {
	case 0:
		chunk(0, 2, 1, 2)
		chunk(2, 4, 3, 4)
	case 1:
		chunk(0, 2, 1, 2)
		chunk(0, 2, 1, 2) // duplicate
	case 2:
		chunk(2, 4, 3, 4) // gap: starts past row 0
	case 3:
		chunk(0, 2, 1, 2, 3) // count mismatch
	case 4:
		chunk(0, 2, uint32(gf.P), 1) // non-canonical lane (a valid float64)
	}
	return buf.Bytes()
}

// FuzzChunkStream drives a real Worker's receive loop over arbitrary
// inbound byte streams (partition starts and chunks of either elem, work,
// anything): Run must terminate without panicking, and a published
// partition can only ever come from a complete in-order stream.
func FuzzChunkStream(f *testing.F) {
	for _, elem := range []wire.Elem{wire.ElemFloat64, wire.ElemGF} {
		for v := 0; v <= 4; v++ {
			f.Add(buildChunkSeed(f, elem, v))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Cap the partition allocation bound so a fuzzed header cannot ask
		// for gigabytes; the guard logic under test is unchanged.
		old := maxPartitionElems
		maxPartitionElems = 1 << 14
		defer func() { maxPartitionElems = old }()
		tc := &wireConn{w: wire.NewWriter(io.Discard), r: wire.NewReader(bytes.NewReader(data))}
		w := newWorker(WorkerConfig{Slowdown: 1, maxResultRows: 4 << 20}, tc)
		// serve, not Run: Run releases the partition maps on return, and the
		// invariant below inspects them.
		w.serve() //nolint:errcheck // any error is a valid outcome; panics fail the fuzz
		// Invariant: every published GF partition is fully assembled and
		// canonical (the guards must make partial publication impossible).
		w.mu.Lock()
		defer w.mu.Unlock()
		for phase, p := range w.exact.partitions {
			if !gf.Valid(p.m.Data()) {
				t.Fatalf("phase %d published a non-canonical partition", phase)
			}
		}
	})
}
