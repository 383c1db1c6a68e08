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
// wire. Each frame type has one kind, except that a Work, Result,
// PartitionStart or PartitionChunk whose elem field says GF(2³¹−1)
// decodes to the matching KindGF* kind, which names Msg's GF slot.
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
// X[l*cols : (l+1)*cols]), 1 for a single-x round and at most
// maxBatchWidth. Job names the serving job the round belongs to, 0 for
// the master's default job.
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
// result-row cap arrives as several messages; every segment but the last
// sets Partial, so the master counts the worker as responded — and
// records its response time for the §4.3 timeout and the speed predictor
// — only when the full result has been delivered.
//
// RowWidth is the Work's W: Values is row-major RowWidth-wide (lane l of
// covered row r at Values[r*RowWidth+l]). Job echoes the Work's job id so
// the master's read loop can route the result to the owning job's round.
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
// *GFWork; the Go type picks the elem field once per frame) as
// elem · job · iter · phase · width · x · ranges.
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
	w.Begin(wire.TypeWork)
	w.Elem(ec.spec().elem)
	w.Int(wk.Job)
	w.Int(wk.Iter)
	w.Int(wk.Phase)
	w.Int(wk.W)
	ec.put(w, wk.X)
	writeRanges(w, wk.Ranges)
}

// sendResult frames a result of either element type (*Result or
// *GFResult) as elem · job · iter · phase · worker · partial · nanos ·
// width · ranges · values, the values row-major width-wide.
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
	w.Begin(wire.TypeResult)
	w.Elem(ec.spec().elem)
	w.Int(r.Job)
	w.Int(r.Iter)
	w.Int(r.Phase)
	w.Int(r.Worker)
	partial := uint64(0)
	if r.Partial {
		partial = 1
	}
	w.Uvarint(partial)
	w.Uvarint(uint64(r.ComputeNanos))
	w.Int(r.RowWidth)
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

// sendPartitionStart announces a streamed partition of C's element type.
func sendPartitionStart[C codec[T], T coding.Element](c *wireConn, p *PartitionStart) error {
	var ec C
	c.mu.Lock()
	defer c.mu.Unlock()
	c.w.Begin(wire.TypePartitionStart)
	c.w.Elem(ec.spec().elem)
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
	c.w.Begin(wire.TypePartitionChunk)
	c.w.Elem(ec.spec().elem)
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
	case wire.TypeWork:
		if p.Elem() == wire.ElemGF {
			m.Kind = KindGFWork
			readWork[gfCodec](p, &m.GFWork)
		} else {
			m.Kind = KindWork
			readWork[floatCodec](p, &m.Work)
		}
	case wire.TypeResult:
		if p.Elem() == wire.ElemGF {
			m.Kind = KindGFResult
			readResult[gfCodec](p, &m.GFResult)
		} else {
			m.Kind = KindResult
			readResult[floatCodec](p, &m.Result)
		}
	case wire.TypePartitionStart:
		m.Kind = KindPartitionStart
		if p.Elem() == wire.ElemGF {
			m.Kind = KindGFPartitionStart
		}
		m.PartStart.Phase = p.Int()
		m.PartStart.Seq = p.Int()
		m.PartStart.Rows = p.Int()
		m.PartStart.Cols = p.Int()
		m.PartStart.ChunkRows = p.Int()
	case wire.TypePartitionChunk:
		m.Kind = KindPartitionChunk
		if p.Elem() == wire.ElemGF {
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

// readWork decodes the fields of a Work frame after its elem into wk.
func readWork[C codec[T], T coding.Element](p *wire.Payload, wk *WorkOf[T]) {
	var ec C
	wk.Job = readJobID(p)
	wk.Iter = p.Int()
	wk.Phase = p.Int()
	wk.W = readWidth(p)
	wk.X = ec.get(p, wk.X)
	wk.Ranges = readRanges(p, wk.Ranges)
}

// readResult decodes the fields of a Result frame after its elem into r.
func readResult[C codec[T], T coding.Element](p *wire.Payload, r *ResultOf[T]) {
	var ec C
	r.Job = readJobID(p)
	r.Iter = p.Int()
	r.Phase = p.Int()
	r.Worker = p.Int()
	r.Partial = p.Uvarint() != 0
	r.ComputeNanos = int64(p.Uvarint())
	r.RowWidth = readWidth(p)
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

// maxBatchWidth bounds the per-row width a frame may declare. Real rounds
// batch a handful of x-vectors (DRAM-bandwidth amortization stops paying
// long before this); the bound exists so a corrupt or hostile width is
// rejected at decode, before any consistency arithmetic uses it.
const maxBatchWidth = 4096

// readWidth decodes a Work or Result width field: anything outside
// [1, maxBatchWidth] is malformed — rejected through the payload's sticky
// error, like every other corrupt field.
//
//s2c2:noalloc
func readWidth(p *wire.Payload) int {
	w := p.Int()
	if w < 1 || w > maxBatchWidth {
		p.Reject()
		return 0
	}
	return w
}

// maxJobID bounds the job tag a frame may declare, rejecting corrupt or
// hostile ids before any routing structure is consulted.
const maxJobID = 1 << 30

// readJobID decodes a Work or Result job field (0 is the default job).
//
//s2c2:noalloc
func readJobID(p *wire.Payload) int {
	id := p.Int()
	if id > maxJobID {
		p.Reject()
		return 0
	}
	return id
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
