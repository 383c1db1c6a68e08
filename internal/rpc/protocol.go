// Package rpc is the real-network runtime of the system: a master and
// worker speaking a framed binary protocol over TCP (stdlib net only). It
// mirrors the paper's implementation (§6): the master encodes the data
// once and streams coded partitions to the workers in bounded, credit-
// controlled chunks; each iteration broadcasts the input vector together
// with per-worker S2C2 work assignments; workers run the coded kernel over
// their assigned row ranges and stream results back; the master measures
// per-worker response times (the predictor's input), applies the §4.3
// timeout, reassigns pending coverage, and decodes.
//
// Transport: every connection opens with the wire-package handshake, and
// the one accepted version (wire.VersionWire) selects the length-prefixed
// binary frame format of internal/wire — per-connection send/receive
// buffers are reused across messages, payloads decode straight into
// caller-owned storage, and the steady-state network round allocates
// nothing on the master. Any other version is rejected at admit.
//
// Workers accept an artificial slowdown factor so straggler scenarios are
// reproducible on a laptop (the controlled-cluster methodology of §6.5).
package rpc

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/wire"
)

// Kind discriminates received messages.
type Kind int

// Message kinds: what recv decoded a frame to. A Kind never travels on the
// wire — several frame types (single-x, batched, job-tagged) decode to the
// same Kind. The GF kinds are the exact GF(2³¹−1) mirror of the float64
// round messages and an in-version extension of wire.VersionWire: the
// handshake gates the *framing*, not the message set, so a peer built
// before the GF frames existed rejects the first one as unknown and drops
// the connection (surfacing as a worker error / transfer failure on the
// master). Masters therefore only drive the GF path against workers from
// the same build generation — acceptable while both binaries ship from one
// tree; a capability bit in the hello would be the upgrade path if that
// ever loosens.
const (
	KindHello Kind = iota + 1
	KindWork
	KindResult
	KindShutdown
	KindPartitionStart   // begin a streamed partition
	KindPartitionChunk   // one row band of a streamed partition
	KindPartitionAck     // chunk stored; returns one flow-control credit
	KindGFWork           // field-element row assignment
	KindGFResult         // computed field-element rows
	KindGFPartitionStart // begin a streamed GF partition
	KindGFPartitionChunk // one row band of field elements
	KindPing             // master → worker liveness probe
	KindPong             // worker → master liveness answer
	KindPartitionDrop    // master → worker: free a phase's partition
)

// Hello is the worker's first message after the handshake.
type Hello struct {
	// Slowdown is the worker's self-reported artificial slowdown factor
	// (1 = full speed); used only for logging/experiments.
	Slowdown float64
}

// PartitionStart announces a streamed partition: the worker allocates the
// Rows×Cols destination matrix and expects chunks covering every row.
// Partitions only ever travel this way, so peak transport memory is
// O(chunk), not O(partition).
// Seq identifies this transfer; chunks carry it and acks echo it, so
// credits from an aborted earlier transfer can never be mistaken for this
// one's (they would otherwise inflate the flow-control window or fail a
// healthy later transfer).
type PartitionStart struct {
	Phase     int
	Seq       int
	Rows      int
	Cols      int
	ChunkRows int // row granularity the master will stream at (informational)
}

// PartitionChunk carries rows [Lo, Hi) of a streamed partition. Only the
// header is received with the message: the row data stays in the
// connection's stream until the worker, having validated the header, reads
// it straight into the partition matrix (Msg.ChunkInto).
type PartitionChunk struct {
	Phase  int
	Seq    int
	Lo, Hi int
}

// PartitionAck acknowledges one stored chunk, returning a flow-control
// credit to the master's streaming window for transfer (Phase, Seq).
type PartitionAck struct {
	Phase int
	Seq   int
}

// Work assigns row ranges for one round. W is the round's batch width:
// the number of input vectors concatenated in X (x_l at
// X[l*cols : (l+1)*cols]). W ≤ 1 is the classic single-x round; batched
// rounds (W > 1) ship as a distinct frame type so the single-x encoding
// stays byte-identical across versions. recv normalizes W to 1 on
// single-x messages.
//
// Job names the serving job the round belongs to. Job 0 — the master's
// default job — travels on the pre-serving frame types, byte-identical to
// the pre-job encoding; other jobs use the TypeJob* frames, which always
// carry both the job id and the width. recv normalizes Job to 0 on
// untagged messages.
type Work struct {
	Job    int
	Iter   int
	Phase  int
	W      int
	X      []float64
	Ranges []coding.Range
}

// Result returns the computed rows. A result larger than the worker's
// MaxResultRows arrives as several messages; every segment but the last
// sets Partial, so the master counts the worker as responded — and
// records its response time for the §4.3 timeout and the speed predictor
// — only when the full result has been delivered.
//
// RowWidth is the values-per-row width: 1 for single-x rounds, the
// round's W for batched rounds, where Values is row-major RowWidth-wide
// (lane l of covered row r at Values[r*RowWidth+l]). recv normalizes it
// to 1 on single-x messages.
//
// Job echoes the Work's job id so the master's read loop can route the
// result to the owning job's round; it is 0 (and normalized to 0 by recv)
// on untagged traffic.
type Result struct {
	Job          int
	Iter         int
	Phase        int
	Worker       int
	Partial      bool
	RowWidth     int
	Ranges       []coding.Range
	Values       []float64
	ComputeNanos int64
}

// GFWork assigns field-element row ranges for one exact round. X is the
// round's input vector over GF(2³¹−1) — or, when W > 1, the round's W
// input vectors concatenated (the batched mirror of Work.W). Job follows
// the same tagging contract as Work.Job.
type GFWork struct {
	Job    int
	Iter   int
	Phase  int
	W      int
	X      []gf.Elem
	Ranges []coding.Range
}

// GFResult returns the computed field-element rows — the exact mirror of
// Result, including the split-result Partial contract, the RowWidth
// batched-values layout, and the Job routing tag.
type GFResult struct {
	Job          int
	Iter         int
	Phase        int
	Worker       int
	Partial      bool
	RowWidth     int
	Ranges       []coding.Range
	Values       []gf.Elem
	ComputeNanos int64
}

// Msg is a reusable receive slot: wireConn.recv decodes the next message
// into it, overwriting slice fields in place (capacity is retained across
// messages). A message that must outlive the next recv — a Work handed to
// a concurrent handler, a Result queued for the round — is transferred out
// by swapping structs with a pooled instance, which moves slice ownership
// without copying.
type Msg struct {
	Kind      Kind
	Hello     Hello
	PartStart PartitionStart
	PartChunk PartitionChunk
	PartAck   PartitionAck
	DropPhase int // KindPartitionDrop: the wire phase to free
	Work      Work
	Result    Result
	GFWork    GFWork
	GFResult  GFResult

	// chunk is the cursor over the unread row payload of a
	// PartitionChunk or GFPartitionChunk until ChunkInto/GFChunkInto
	// drains it into the destination rows. (GF chunks reuse the PartStart/
	// PartChunk header structs; the Kind disambiguates.)
	chunk *wire.Payload
}

// ChunkInto reads the pending partition chunk's row data into dst, the
// caller-owned matrix rows [Lo, Hi): the element count is checked against
// len(dst) and against the frame's size first, then the bytes move from
// the connection's read buffer — and, past what it holds, from the socket
// — directly into dst. A body that ends short is an error with dst partly
// written; the caller must not publish it. ChunkInto drains the chunk: a
// second call (or a call on a message that is not a partition chunk) is
// an error.
//
//s2c2:noalloc
func (m *Msg) ChunkInto(dst []float64) error {
	if m.chunk == nil {
		return fmt.Errorf("rpc: no pending chunk payload")
	}
	p := m.chunk
	m.chunk = nil
	return p.Float64sInto(dst)
}

// GFChunkInto is ChunkInto for a GF partition chunk: the pending uint32
// payload lands straight in the destination field-element rows.
//
//s2c2:noalloc
func (m *Msg) GFChunkInto(dst []gf.Elem) error {
	if m.chunk == nil {
		return fmt.Errorf("rpc: no pending chunk payload")
	}
	p := m.chunk
	m.chunk = nil
	return p.Uint32sInto(gf.AsUint32s(dst))
}

// maxRPCFrame is the frame-body cap the rpc transport accepts — larger
// than wire.DefaultMaxFrame so a single partition row, work broadcast, or
// result segment of an extremely wide matrix (up to 128 Mi float64s)
// still fits one frame, while corrupt or hostile length prefixes are
// still rejected before any buffer is sized to them.
const maxRPCFrame = 1 << 30

// wireConn is the message layer spoken over one connection, framing
// messages with internal/wire. One Writer (guarded by mu) and one Reader
// per connection; both reuse their buffers across messages, so a
// steady-state round performs no per-message allocation. Sends may be
// called from multiple goroutines; recv must only be called from the
// connection's single reader goroutine.
type wireConn struct {
	c            net.Conn
	br           *bufio.Reader
	writeTimeout time.Duration

	mu sync.Mutex // serializes frame writes
	w  *wire.Writer
	r  *wire.Reader

	closeOnce sync.Once
	closeErr  error
}

// newWireConn wraps an accepted or dialed connection whose handshake chose
// wire.VersionWire. writeTimeout bounds every frame write: a peer that
// stops reading (frozen process, full socket buffer) makes sends fail with
// a deadline error instead of blocking forever while holding the
// connection's write mutex — which would otherwise wedge rounds, partition
// transfers, and even Shutdown's best-effort goodbye.
func newWireConn(c net.Conn, writeTimeout time.Duration) *wireConn {
	br := bufio.NewReaderSize(c, 64<<10)
	r := wire.NewReader(br)
	r.SetMaxFrame(maxRPCFrame)
	return &wireConn{c: c, br: br, writeTimeout: writeTimeout, w: wire.NewWriter(c), r: r}
}

// writeDeadlineFor scales a per-send write deadline with the payload —
// the base timeout plus one second per MiB — so a large frame on a slow
// link gets transfer time proportional to its size while a peer that has
// stopped reading entirely is still detected within the base timeout.
//
//s2c2:noalloc
func writeDeadlineFor(base time.Duration, payloadBytes int) time.Duration {
	return base + time.Duration(payloadBytes>>20)*time.Second
}

// end finishes the frame under construction and flushes it to the socket
// under the write deadline. A deadline failure leaves a torn frame on the
// stream, so the error is fatal for the connection (callers abort and the
// peer's reader fails on the truncation).
//
//s2c2:noalloc
func (c *wireConn) end() error {
	if c.c != nil && c.writeTimeout > 0 {
		d := writeDeadlineFor(c.writeTimeout, c.w.PendingBytes())
		c.c.SetWriteDeadline(time.Now().Add(d)) //nolint:errcheck
	}
	return c.w.End()
}

func (c *wireConn) sendHello(h *Hello) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Begin(wire.TypeHello)
	c.w.Float64(h.Slowdown)
	return c.end()
}

// sendWork frames a single-x assignment as TypeWork — byte-identical to
// the pre-batch encoding — and a batched one (W > 1) as TypeWorkBatch
// with the width field ahead of the concatenated x-vectors. A non-default
// job's assignment (Job != 0) travels as TypeJobWork, which carries the
// job id and the width at every width, so job 0's traffic never changes
// shape for old workers.
//
//s2c2:noalloc
func (c *wireConn) sendWork(wk *Work) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if wk.Job != 0 {
		c.w.Begin(wire.TypeJobWork)
		c.w.Int(wk.Job)
		c.w.Int(wk.Iter)
		c.w.Int(wk.Phase)
		c.w.Int(wk.W)
		c.w.Float64s(wk.X)
		writeRanges(c.w, wk.Ranges)
		return c.end()
	}
	if wk.W > 1 {
		c.w.Begin(wire.TypeWorkBatch)
		c.w.Int(wk.Iter)
		c.w.Int(wk.Phase)
		c.w.Int(wk.W)
		c.w.Float64s(wk.X)
		writeRanges(c.w, wk.Ranges)
		return c.end()
	}
	c.w.Begin(wire.TypeWork)
	c.w.Int(wk.Iter)
	c.w.Int(wk.Phase)
	c.w.Float64s(wk.X)
	writeRanges(c.w, wk.Ranges)
	return c.end()
}

// sendResult frames a single-x result as TypeResult (unchanged encoding)
// and a batched one (RowWidth > 1) as TypeResultBatch with the width
// field ahead of the ranges and row-major width-wide values. A tagged
// job's result (Job != 0) echoes the job id on TypeJobResult, width field
// always present.
//
//s2c2:noalloc
func (c *wireConn) sendResult(r *Result) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.Job != 0 {
		c.w.Begin(wire.TypeJobResult)
		c.w.Int(r.Job)
		c.w.Int(r.Iter)
		c.w.Int(r.Phase)
		c.w.Int(r.Worker)
		if r.Partial {
			c.w.Uvarint(1)
		} else {
			c.w.Uvarint(0)
		}
		c.w.Uvarint(uint64(r.ComputeNanos))
		c.w.Int(r.RowWidth)
		writeRanges(c.w, r.Ranges)
		c.w.Float64s(r.Values)
		return c.end()
	}
	if r.RowWidth > 1 {
		c.w.Begin(wire.TypeResultBatch)
	} else {
		c.w.Begin(wire.TypeResult)
	}
	c.w.Int(r.Iter)
	c.w.Int(r.Phase)
	c.w.Int(r.Worker)
	if r.Partial {
		c.w.Uvarint(1)
	} else {
		c.w.Uvarint(0)
	}
	c.w.Uvarint(uint64(r.ComputeNanos))
	if r.RowWidth > 1 {
		c.w.Int(r.RowWidth)
	}
	writeRanges(c.w, r.Ranges)
	c.w.Float64s(r.Values)
	return c.end()
}

func (c *wireConn) sendShutdown() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Begin(wire.TypeShutdown)
	return c.end()
}

// sendPing/sendPong are the heartbeat pair: the master probes liveness
// (registered and parked connections alike), the worker answers. Both
// frames are empty-bodied, so the heartbeat costs a few bytes per
// interval.
//
//s2c2:noalloc
func (c *wireConn) sendPing() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Begin(wire.TypePing)
	return c.end()
}

//s2c2:noalloc
func (c *wireConn) sendPong() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Begin(wire.TypePong)
	return c.end()
}

func (c *wireConn) sendPartitionStart(p *PartitionStart) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Begin(wire.TypePartitionStart)
	c.w.Int(p.Phase)
	c.w.Int(p.Seq)
	c.w.Int(p.Rows)
	c.w.Int(p.Cols)
	c.w.Int(p.ChunkRows)
	return c.end()
}

// sendPartitionChunk frames the chunk header in the Writer and borrows the
// row bytes straight from the partition: header and rows leave in one
// vectored write under one deadline, with no staging copy of the rows.
//
//s2c2:noalloc
func (c *wireConn) sendPartitionChunk(phase, seq, lo, hi int, data []float64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Begin(wire.TypePartitionChunk)
	c.w.Int(phase)
	c.w.Int(seq)
	c.w.Int(lo)
	c.w.Int(hi)
	c.w.Float64sTail(data)
	return c.end()
}

// sendPartitionDrop tells the worker to free whatever it holds for a wire
// phase (Job.Close).
func (c *wireConn) sendPartitionDrop(phase int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Begin(wire.TypePartitionDrop)
	c.w.Int(phase)
	return c.end()
}

//s2c2:noalloc
func (c *wireConn) sendPartitionAck(phase, seq int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Begin(wire.TypePartitionAck)
	c.w.Int(phase)
	c.w.Int(seq)
	return c.end()
}

//s2c2:noalloc
func (c *wireConn) sendGFWork(wk *GFWork) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if wk.Job != 0 {
		c.w.Begin(wire.TypeJobGFWork)
		c.w.Int(wk.Job)
		c.w.Int(wk.Iter)
		c.w.Int(wk.Phase)
		c.w.Int(wk.W)
		c.w.Uint32s(gf.AsUint32s(wk.X))
		writeRanges(c.w, wk.Ranges)
		return c.end()
	}
	if wk.W > 1 {
		c.w.Begin(wire.TypeGFWorkBatch)
		c.w.Int(wk.Iter)
		c.w.Int(wk.Phase)
		c.w.Int(wk.W)
		c.w.Uint32s(gf.AsUint32s(wk.X))
		writeRanges(c.w, wk.Ranges)
		return c.end()
	}
	c.w.Begin(wire.TypeGFWork)
	c.w.Int(wk.Iter)
	c.w.Int(wk.Phase)
	c.w.Uint32s(gf.AsUint32s(wk.X))
	writeRanges(c.w, wk.Ranges)
	return c.end()
}

//s2c2:noalloc
func (c *wireConn) sendGFResult(r *GFResult) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.Job != 0 {
		c.w.Begin(wire.TypeJobGFResult)
		c.w.Int(r.Job)
		c.w.Int(r.Iter)
		c.w.Int(r.Phase)
		c.w.Int(r.Worker)
		if r.Partial {
			c.w.Uvarint(1)
		} else {
			c.w.Uvarint(0)
		}
		c.w.Uvarint(uint64(r.ComputeNanos))
		c.w.Int(r.RowWidth)
		writeRanges(c.w, r.Ranges)
		c.w.Uint32s(gf.AsUint32s(r.Values))
		return c.end()
	}
	if r.RowWidth > 1 {
		c.w.Begin(wire.TypeGFResultBatch)
	} else {
		c.w.Begin(wire.TypeGFResult)
	}
	c.w.Int(r.Iter)
	c.w.Int(r.Phase)
	c.w.Int(r.Worker)
	if r.Partial {
		c.w.Uvarint(1)
	} else {
		c.w.Uvarint(0)
	}
	c.w.Uvarint(uint64(r.ComputeNanos))
	if r.RowWidth > 1 {
		c.w.Int(r.RowWidth)
	}
	writeRanges(c.w, r.Ranges)
	c.w.Uint32s(gf.AsUint32s(r.Values))
	return c.end()
}

func (c *wireConn) sendGFPartitionStart(p *PartitionStart) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Begin(wire.TypeGFPartitionStart)
	c.w.Int(p.Phase)
	c.w.Int(p.Seq)
	c.w.Int(p.Rows)
	c.w.Int(p.Cols)
	c.w.Int(p.ChunkRows)
	return c.end()
}

//s2c2:noalloc
func (c *wireConn) sendGFPartitionChunk(phase, seq, lo, hi int, data []gf.Elem) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Begin(wire.TypeGFPartitionChunk)
	c.w.Int(phase)
	c.w.Int(seq)
	c.w.Int(lo)
	c.w.Int(hi)
	c.w.Uint32sTail(gf.AsUint32s(data))
	return c.end()
}

//s2c2:noalloc
func (c *wireConn) recv(m *Msg) error {
	typ, p, err := c.r.Next()
	if err != nil {
		return err
	}
	m.chunk = nil
	switch typ {
	case wire.TypeHello:
		m.Kind = KindHello
		m.Hello.Slowdown = p.Float64()
	case wire.TypeWork:
		m.Kind = KindWork
		m.Work.Job = 0 // pooled slot may carry a stale job tag
		m.Work.Iter = p.Int()
		m.Work.Phase = p.Int()
		m.Work.W = 1 // pooled slot may carry a stale batch width
		m.Work.X = p.Float64s(m.Work.X)
		m.Work.Ranges = readRanges(p, m.Work.Ranges)
	case wire.TypeWorkBatch:
		m.Kind = KindWork
		m.Work.Job = 0
		m.Work.Iter = p.Int()
		m.Work.Phase = p.Int()
		m.Work.W = readBatchWidth(p)
		m.Work.X = p.Float64s(m.Work.X)
		m.Work.Ranges = readRanges(p, m.Work.Ranges)
	case wire.TypeJobWork:
		m.Kind = KindWork
		m.Work.Job = readJobID(p)
		m.Work.Iter = p.Int()
		m.Work.Phase = p.Int()
		m.Work.W = readJobWidth(p)
		m.Work.X = p.Float64s(m.Work.X)
		m.Work.Ranges = readRanges(p, m.Work.Ranges)
	case wire.TypeResult:
		m.Kind = KindResult
		m.Result.Job = 0 // pooled slot may carry a stale job tag
		m.Result.Iter = p.Int()
		m.Result.Phase = p.Int()
		m.Result.Worker = p.Int()
		m.Result.Partial = p.Uvarint() != 0
		m.Result.ComputeNanos = int64(p.Uvarint())
		m.Result.RowWidth = 1 // pooled slot may carry a stale batch width
		m.Result.Ranges = readRanges(p, m.Result.Ranges)
		m.Result.Values = p.Float64s(m.Result.Values)
	case wire.TypeResultBatch:
		m.Kind = KindResult
		m.Result.Job = 0
		m.Result.Iter = p.Int()
		m.Result.Phase = p.Int()
		m.Result.Worker = p.Int()
		m.Result.Partial = p.Uvarint() != 0
		m.Result.ComputeNanos = int64(p.Uvarint())
		m.Result.RowWidth = readBatchWidth(p)
		m.Result.Ranges = readRanges(p, m.Result.Ranges)
		m.Result.Values = p.Float64s(m.Result.Values)
	case wire.TypeJobResult:
		m.Kind = KindResult
		m.Result.Job = readJobID(p)
		m.Result.Iter = p.Int()
		m.Result.Phase = p.Int()
		m.Result.Worker = p.Int()
		m.Result.Partial = p.Uvarint() != 0
		m.Result.ComputeNanos = int64(p.Uvarint())
		m.Result.RowWidth = readJobWidth(p)
		m.Result.Ranges = readRanges(p, m.Result.Ranges)
		m.Result.Values = p.Float64s(m.Result.Values)
	case wire.TypePartitionStart:
		m.Kind = KindPartitionStart
		m.PartStart.Phase = p.Int()
		m.PartStart.Seq = p.Int()
		m.PartStart.Rows = p.Int()
		m.PartStart.Cols = p.Int()
		m.PartStart.ChunkRows = p.Int()
	case wire.TypePartitionChunk:
		m.Kind = KindPartitionChunk
		m.PartChunk.Phase = p.Int()
		m.PartChunk.Seq = p.Int()
		m.PartChunk.Lo = p.Int()
		m.PartChunk.Hi = p.Int()
		if err := p.Err(); err != nil {
			return err
		}
		// The cursor is consumed by ChunkInto before the next recv on this
		// conn; recv's single-goroutine ownership makes the stash safe.
		//s2c2:waive payloadescape
		m.chunk = p // row payload still in the stream; ChunkInto lands it in the matrix
		return nil
	case wire.TypePartitionAck:
		m.Kind = KindPartitionAck
		m.PartAck.Phase = p.Int()
		m.PartAck.Seq = p.Int()
	case wire.TypeGFWork:
		m.Kind = KindGFWork
		m.GFWork.Job = 0 // pooled slot may carry a stale job tag
		m.GFWork.Iter = p.Int()
		m.GFWork.Phase = p.Int()
		m.GFWork.W = 1 // pooled slot may carry a stale batch width
		m.GFWork.X = gf.AsElems(p.Uint32s(gf.AsUint32s(m.GFWork.X)))
		m.GFWork.Ranges = readRanges(p, m.GFWork.Ranges)
	case wire.TypeGFWorkBatch:
		m.Kind = KindGFWork
		m.GFWork.Job = 0
		m.GFWork.Iter = p.Int()
		m.GFWork.Phase = p.Int()
		m.GFWork.W = readBatchWidth(p)
		m.GFWork.X = gf.AsElems(p.Uint32s(gf.AsUint32s(m.GFWork.X)))
		m.GFWork.Ranges = readRanges(p, m.GFWork.Ranges)
	case wire.TypeJobGFWork:
		m.Kind = KindGFWork
		m.GFWork.Job = readJobID(p)
		m.GFWork.Iter = p.Int()
		m.GFWork.Phase = p.Int()
		m.GFWork.W = readJobWidth(p)
		m.GFWork.X = gf.AsElems(p.Uint32s(gf.AsUint32s(m.GFWork.X)))
		m.GFWork.Ranges = readRanges(p, m.GFWork.Ranges)
	case wire.TypeGFResult:
		m.Kind = KindGFResult
		m.GFResult.Job = 0 // pooled slot may carry a stale job tag
		m.GFResult.Iter = p.Int()
		m.GFResult.Phase = p.Int()
		m.GFResult.Worker = p.Int()
		m.GFResult.Partial = p.Uvarint() != 0
		m.GFResult.ComputeNanos = int64(p.Uvarint())
		m.GFResult.RowWidth = 1 // pooled slot may carry a stale batch width
		m.GFResult.Ranges = readRanges(p, m.GFResult.Ranges)
		m.GFResult.Values = gf.AsElems(p.Uint32s(gf.AsUint32s(m.GFResult.Values)))
	case wire.TypeGFResultBatch:
		m.Kind = KindGFResult
		m.GFResult.Job = 0
		m.GFResult.Iter = p.Int()
		m.GFResult.Phase = p.Int()
		m.GFResult.Worker = p.Int()
		m.GFResult.Partial = p.Uvarint() != 0
		m.GFResult.ComputeNanos = int64(p.Uvarint())
		m.GFResult.RowWidth = readBatchWidth(p)
		m.GFResult.Ranges = readRanges(p, m.GFResult.Ranges)
		m.GFResult.Values = gf.AsElems(p.Uint32s(gf.AsUint32s(m.GFResult.Values)))
	case wire.TypeJobGFResult:
		m.Kind = KindGFResult
		m.GFResult.Job = readJobID(p)
		m.GFResult.Iter = p.Int()
		m.GFResult.Phase = p.Int()
		m.GFResult.Worker = p.Int()
		m.GFResult.Partial = p.Uvarint() != 0
		m.GFResult.ComputeNanos = int64(p.Uvarint())
		m.GFResult.RowWidth = readJobWidth(p)
		m.GFResult.Ranges = readRanges(p, m.GFResult.Ranges)
		m.GFResult.Values = gf.AsElems(p.Uint32s(gf.AsUint32s(m.GFResult.Values)))
	case wire.TypeGFPartitionStart:
		m.Kind = KindGFPartitionStart
		m.PartStart.Phase = p.Int()
		m.PartStart.Seq = p.Int()
		m.PartStart.Rows = p.Int()
		m.PartStart.Cols = p.Int()
		m.PartStart.ChunkRows = p.Int()
	case wire.TypeGFPartitionChunk:
		m.Kind = KindGFPartitionChunk
		m.PartChunk.Phase = p.Int()
		m.PartChunk.Seq = p.Int()
		m.PartChunk.Lo = p.Int()
		m.PartChunk.Hi = p.Int()
		if err := p.Err(); err != nil {
			return err
		}
		// Same contract as the float chunk above: GFChunkInto drains the
		// cursor before the conn reads another frame.
		//s2c2:waive payloadescape
		m.chunk = p // element payload still in the stream; GFChunkInto lands it
		return nil
	case wire.TypePartitionDrop:
		m.Kind = KindPartitionDrop
		m.DropPhase = p.Int()
	case wire.TypeShutdown:
		m.Kind = KindShutdown
	case wire.TypePing:
		m.Kind = KindPing
	case wire.TypePong:
		m.Kind = KindPong
	default:
		return fmt.Errorf("rpc: unknown frame type %d", typ)
	}
	return p.Err()
}

func (c *wireConn) close() error {
	// c.c is nil when the transport runs over an in-memory stream (test
	// and fuzz harnesses); there is no socket to close then.
	c.closeOnce.Do(func() {
		if c.c != nil {
			c.closeErr = c.c.Close()
		}
	})
	return c.closeErr
}

// maxBatchWidth bounds the per-row width a batch frame may declare. Real
// rounds batch a handful of x-vectors (DRAM-bandwidth amortization stops
// paying long before this); the bound exists so a corrupt or hostile
// width is rejected at decode, before any consistency arithmetic uses it.
const maxBatchWidth = 4096

// readBatchWidth decodes the width field of a batch frame. Batch frames
// exist only for widths ≥ 2 (width-1 traffic uses the classic frames), so
// anything else is malformed — rejected through the payload's sticky
// error, like every other corrupt field.
//
//s2c2:noalloc
func readBatchWidth(p *wire.Payload) int {
	w := p.Int()
	if w < 2 || w > maxBatchWidth {
		p.Reject()
		return 0
	}
	return w
}

// maxJobID bounds the job tag a TypeJob* frame may declare, rejecting
// corrupt or hostile ids before any routing structure is consulted.
const maxJobID = 1 << 30

// readJobID decodes the job tag of a TypeJob* frame. Tagged frames exist
// only for jobs ≥ 1 (the default job travels untagged), so anything else
// is malformed.
//
//s2c2:noalloc
func readJobID(p *wire.Payload) int {
	id := p.Int()
	if id < 1 || id > maxJobID {
		p.Reject()
		return 0
	}
	return id
}

// readJobWidth decodes the width field of a TypeJob* frame, which —
// unlike the batch frames — is present at every width including 1.
//
//s2c2:noalloc
func readJobWidth(p *wire.Payload) int {
	w := p.Int()
	if w < 1 || w > maxBatchWidth {
		p.Reject()
		return 0
	}
	return w
}

// writeRanges appends a count-prefixed list of [lo, hi) varint pairs.
//
//s2c2:noalloc
func writeRanges(w *wire.Writer, ranges []coding.Range) {
	w.Int(len(ranges))
	for _, r := range ranges {
		w.Int(r.Lo)
		w.Int(r.Hi)
	}
}

// readRanges decodes a range list, reusing dst's capacity.
//
//s2c2:noalloc
func readRanges(p *wire.Payload, dst []coding.Range) []coding.Range {
	n := p.Int()
	// Every range costs at least two payload bytes; a count the remaining
	// bytes cannot hold is corrupt, rejected before any allocation. The
	// comparison divides rather than multiplies so a hostile count cannot
	// overflow the guard.
	if p.Err() != nil || n > p.Remaining()/2 {
		p.Reject()
		return dst[:0]
	}
	dst = kernel.GrowSlice(dst, n)
	for i := range dst {
		dst[i].Lo = p.Int()
		dst[i].Hi = p.Int()
	}
	return dst
}
