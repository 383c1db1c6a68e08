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
// it straight into the partition matrix (workerLane.store).
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

// WorkOf assigns row ranges for one round. W is the round's batch width:
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
type WorkOf[T coding.Element] struct {
	Job    int
	Iter   int
	Phase  int
	W      int
	X      []T
	Ranges []coding.Range
}

// Work is a float64 assignment; GFWork assigns rows of a GF(2³¹−1)
// partition against field-element input vectors.
type (
	Work   = WorkOf[float64]
	GFWork = WorkOf[gf.Elem]
)

// ResultOf returns the computed rows. A result larger than the worker's
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
type ResultOf[T coding.Element] struct {
	Job          int
	Iter         int
	Phase        int
	Worker       int
	Partial      bool
	RowWidth     int
	Ranges       []coding.Range
	Values       []T
	ComputeNanos int64
}

// Result carries float64 rows; GFResult carries field-element rows.
type (
	Result   = ResultOf[float64]
	GFResult = ResultOf[gf.Elem]
)

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

	// chunk is the cursor over the unread row payload of a partition chunk
	// (either element type; the Kind disambiguates) until the worker's
	// store drains it into the destination rows.
	chunk *wire.Payload
}

// fromPool returns a recycled slot from p, or a fresh one on a pool miss.
//
//s2c2:noalloc
func fromPool[V any](p *sync.Pool) *V {
	if v := p.Get(); v != nil {
		return v.(*V)
	}
	// Pool miss: mints the slot the pool will recycle from then on.
	//s2c2:waive noalloc
	return new(V)
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

// sendWork frames an assignment of either element type (*Work or
// *GFWork; the element type picks the frame family once per frame). A
// single-x assignment travels as TypeWork/TypeGFWork — byte-identical to
// the pre-batch encoding — and a batched one (W > 1) as the family's
// batch frame with the width field ahead of the concatenated x-vectors. A
// non-default job's assignment (Job != 0) travels as the family's job
// frame, which carries the job id and the width at every width, so job
// 0's traffic never changes shape for old workers.
//
//s2c2:noalloc
func (c *wireConn) sendWork(wk any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch wk := wk.(type) {
	case *Work:
		putWork[floatCodec](c.w, wk)
	case *GFWork:
		putWork[gfCodec](c.w, wk)
	default:
		return fmt.Errorf("rpc: sendWork of %T", wk)
	}
	return c.end()
}

func putWork[C codec[T], T coding.Element](w *wire.Writer, wk *WorkOf[T]) {
	var ec C
	f := ec.spec()
	switch {
	case wk.Job != 0:
		w.Begin(f.jobWork)
		w.Int(wk.Job)
	case wk.W > 1:
		w.Begin(f.workBatch)
	default:
		w.Begin(f.work)
	}
	w.Int(wk.Iter)
	w.Int(wk.Phase)
	if wk.Job != 0 || wk.W > 1 {
		w.Int(wk.W)
	}
	ec.put(w, wk.X)
	writeRanges(w, wk.Ranges)
}

// sendResult frames a result of either element type (*Result or
// *GFResult): single-x as TypeResult/TypeGFResult (unchanged encoding),
// batched (RowWidth > 1) as the family's batch frame with the width field
// ahead of the ranges and row-major width-wide values. A tagged job's
// result (Job != 0) echoes the job id on the family's job frame, width
// field always present.
//
//s2c2:noalloc
func (c *wireConn) sendResult(r any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch r := r.(type) {
	case *Result:
		putResult[floatCodec](c.w, r)
	case *GFResult:
		putResult[gfCodec](c.w, r)
	default:
		return fmt.Errorf("rpc: sendResult of %T", r)
	}
	return c.end()
}

func putResult[C codec[T], T coding.Element](w *wire.Writer, r *ResultOf[T]) {
	var ec C
	f := ec.spec()
	switch {
	case r.Job != 0:
		w.Begin(f.jobResult)
		w.Int(r.Job)
	case r.RowWidth > 1:
		w.Begin(f.resultBatch)
	default:
		w.Begin(f.result)
	}
	w.Int(r.Iter)
	w.Int(r.Phase)
	w.Int(r.Worker)
	partial := uint64(0)
	if r.Partial {
		partial = 1
	}
	w.Uvarint(partial)
	w.Uvarint(uint64(r.ComputeNanos))
	if r.Job != 0 || r.RowWidth > 1 {
		w.Int(r.RowWidth)
	}
	writeRanges(w, r.Ranges)
	ec.put(w, r.Values)
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

// sendPartitionStart announces a streamed partition on typ, its element
// type's start frame.
func (c *wireConn) sendPartitionStart(typ wire.Type, p *PartitionStart) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Begin(typ)
	c.w.Int(p.Phase)
	c.w.Int(p.Seq)
	c.w.Int(p.Rows)
	c.w.Int(p.Cols)
	c.w.Int(p.ChunkRows)
	return c.end()
}

// sendPartitionChunk frames the chunk header in the Writer and borrows the
// row elements straight from the partition: header and rows leave in one
// vectored write under one deadline, with no staging copy of the rows.
//
//s2c2:noalloc
func sendPartitionChunk[C codec[T], T coding.Element](c *wireConn, phase, seq, lo, hi int, data []T) error {
	var ec C
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Begin(ec.spec().partChunk)
	c.w.Int(phase)
	c.w.Int(seq)
	c.w.Int(lo)
	c.w.Int(hi)
	ec.putTail(c.w, data)
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
	case wire.TypeWork, wire.TypeWorkBatch, wire.TypeJobWork:
		m.Kind = KindWork
		readWork[floatCodec](p, typ, &m.Work)
	case wire.TypeGFWork, wire.TypeGFWorkBatch, wire.TypeJobGFWork:
		m.Kind = KindGFWork
		readWork[gfCodec](p, typ, &m.GFWork)
	case wire.TypeResult, wire.TypeResultBatch, wire.TypeJobResult:
		m.Kind = KindResult
		readResult[floatCodec](p, typ, &m.Result)
	case wire.TypeGFResult, wire.TypeGFResultBatch, wire.TypeJobGFResult:
		m.Kind = KindGFResult
		readResult[gfCodec](p, typ, &m.GFResult)
	case wire.TypePartitionStart, wire.TypeGFPartitionStart:
		m.Kind = KindPartitionStart
		if typ == wire.TypeGFPartitionStart {
			m.Kind = KindGFPartitionStart
		}
		m.PartStart.Phase = p.Int()
		m.PartStart.Seq = p.Int()
		m.PartStart.Rows = p.Int()
		m.PartStart.Cols = p.Int()
		m.PartStart.ChunkRows = p.Int()
	case wire.TypePartitionChunk, wire.TypeGFPartitionChunk:
		m.Kind = KindPartitionChunk
		if typ == wire.TypeGFPartitionChunk {
			m.Kind = KindGFPartitionChunk
		}
		m.PartChunk.Phase = p.Int()
		m.PartChunk.Seq = p.Int()
		m.PartChunk.Lo = p.Int()
		m.PartChunk.Hi = p.Int()
		if err := p.Err(); err != nil {
			return err
		}
		// The worker drains the cursor before the next recv on this conn;
		// recv's single-goroutine ownership makes the stash safe.
		//s2c2:waive payloadescape
		m.chunk = p // row payload still in the stream; the worker lands it in the matrix
		return nil
	case wire.TypePartitionAck:
		m.Kind = KindPartitionAck
		m.PartAck.Phase = p.Int()
		m.PartAck.Seq = p.Int()
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

// readWork decodes an assignment frame of C's family into wk; typ picks
// the header layout. The pooled slot may carry a stale job tag or batch
// width, so both are reset for the untagged frames.
func readWork[C codec[T], T coding.Element](p *wire.Payload, typ wire.Type, wk *WorkOf[T]) {
	var ec C
	f := ec.spec()
	wk.Job, wk.W = 0, 1
	if typ == f.jobWork {
		wk.Job = readJobID(p)
	}
	wk.Iter = p.Int()
	wk.Phase = p.Int()
	switch typ {
	case f.jobWork:
		wk.W = readJobWidth(p)
	case f.workBatch:
		wk.W = readBatchWidth(p)
	}
	wk.X = ec.get(p, wk.X)
	wk.Ranges = readRanges(p, wk.Ranges)
}

// readResult decodes a result frame of C's family into r (see readWork).
func readResult[C codec[T], T coding.Element](p *wire.Payload, typ wire.Type, r *ResultOf[T]) {
	var ec C
	f := ec.spec()
	r.Job, r.RowWidth = 0, 1
	if typ == f.jobResult {
		r.Job = readJobID(p)
	}
	r.Iter = p.Int()
	r.Phase = p.Int()
	r.Worker = p.Int()
	r.Partial = p.Uvarint() != 0
	r.ComputeNanos = int64(p.Uvarint())
	switch typ {
	case f.jobResult:
		r.RowWidth = readJobWidth(p)
	case f.resultBatch:
		r.RowWidth = readBatchWidth(p)
	}
	r.Ranges = readRanges(p, r.Ranges)
	r.Values = ec.get(p, r.Values)
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
