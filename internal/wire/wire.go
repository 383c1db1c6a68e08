// Package wire is the binary framing layer of the network runtime: a
// length-prefixed frame format with varint headers and raw little-endian
// payloads, designed so both ends of a connection run allocation-free in
// steady state.
//
// Every frame is
//
//	uvarint(len(body)) · body
//	body = type byte · type-specific fields
//
// where multi-byte integers are unsigned varints and numeric bulk payloads
// are raw element bytes (float64 as IEEE-754 bits, field elements as
// uint32, both little-endian) prefixed by an element count. The frames
// that carry a payload — Work, Result, PartitionStart, PartitionChunk —
// open with an Elem field naming its element type. A Writer owns
// one scratch buffer reused across frames; a Reader owns one receive
// buffer plus a Payload cursor that decodes fields in place, so the only
// per-message cost is the copy into caller-owned storage (matrices, pooled
// result slices) — there is no intermediate message object.
//
// Bulk payloads move by memmove: on little-endian hosts the in-memory
// element layout is the wire layout, so codec_le.go copies whole payloads
// through a byte view; codec_portable.go (big-endian GOARCH, or the noasm
// build tag) keeps the element-by-element loops. Partition chunks skip
// even that staging copy: a Writer's *Tail payload goes out in one
// vectored write straight from the caller's slice, and a Reader hands
// chunk frames over header-first so the element bytes are read from the
// stream directly into the destination rows.
//
// Connections open with a 5-byte handshake — the 4-byte magic "S2C2"
// followed by a version byte. VersionWire, this format, is the one version
// defined; a listener rejects any other byte before reading a frame.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
)

// VersionWire is the handshake version of this package's binary frame
// format. The version byte follows the 4-byte magic and fixes the message
// encoding for the rest of the connection; every other value is rejected.
const VersionWire byte = 2

// magic opens every connection, before the version byte.
var magic = [4]byte{'S', '2', 'C', '2'}

// ErrBadMagic reports a handshake that does not start with the protocol
// magic.
var ErrBadMagic = errors.New("wire: bad handshake magic")

// WriteHandshake sends the magic and version. The dialing side calls it
// exactly once, before any frame.
func WriteHandshake(w io.Writer, version byte) error {
	var hs [5]byte
	copy(hs[:], magic[:])
	hs[4] = version
	_, err := w.Write(hs[:])
	return err
}

// ReadHandshake consumes and validates the magic, returning the peer's
// version byte. Callers decide which versions they accept.
func ReadHandshake(r io.Reader) (byte, error) {
	var hs [5]byte
	if _, err := io.ReadFull(r, hs[:]); err != nil {
		return 0, fmt.Errorf("wire: handshake: %w", err)
	}
	if [4]byte(hs[:4]) != magic {
		return 0, ErrBadMagic
	}
	return hs[4], nil
}

// Type discriminates frames. The zero value is invalid so a zeroed frame
// can never masquerade as a message.
type Type byte

// Frame types of the master↔worker protocol. Work, Result,
// PartitionStart and PartitionChunk serve both element types: their first
// field is an Elem. A PartitionAck credits whichever transfer its sequence
// number fences, float64 or GF.
const (
	TypeHello          Type = 1 + iota // worker → master: join
	TypeWork                           // master → worker: row assignment
	TypeResult                         // worker → master: computed rows
	TypePartitionStart                 // master → worker: begin streamed partition
	TypePartitionChunk                 // master → worker: one row band
	TypePartitionAck                   // worker → master: chunk stored (credit return)
	TypePartitionDrop                  // master → worker: free a phase's partition (job closed)
	TypeShutdown                       // master → worker: exit
	TypePing                           // master → worker: liveness probe (empty body)
	TypePong                           // worker → master: liveness answer (empty body)
)

// Names the benchmark harness frames its replayed traffic with.
const (
	TypeJobWork   = TypeWork   // only user: benchmark/replay.go
	TypeJobResult = TypeResult // only user: benchmark/replay.go
)

// Elem is the element type of a bulk frame's payload, sent as a varint.
type Elem byte

// Element types. Every other value is malformed.
const (
	ElemFloat64 Elem = 0 // IEEE-754 float64, 8 bytes per element
	ElemGF      Elem = 1 // GF(2³¹−1) field element as uint32, 4 bytes per element
)

// DefaultMaxFrame bounds accepted frame bodies. Partitions are streamed in
// bounded chunks, so legitimate frames are far smaller; the limit exists to
// reject corrupt or hostile length prefixes before any buffer is sized to
// them.
const DefaultMaxFrame = 64 << 20

// Frame decode errors. These are sentinel values (not fmt-wrapped per
// message) so the receive path stays allocation-free.
var (
	// ErrFrameTooBig reports a length prefix above the reader's limit.
	ErrFrameTooBig = errors.New("wire: frame exceeds size limit")
	// ErrTruncated reports a payload shorter than its fields claim.
	ErrTruncated = errors.New("wire: truncated frame payload")
	// ErrMalformed reports an undecodable varint or corrupt field.
	ErrMalformed = errors.New("wire: malformed frame")
)

// Writer frames messages onto an io.Writer through one reused scratch
// buffer: Begin starts a frame, the append methods build its body, End
// length-prefixes and writes it. The body is built after a reserved header
// region so the finished frame (prefix + body) goes out in a single Write.
// Writers are not safe for concurrent use; the rpc layer serializes sends
// per connection.
type Writer struct {
	w    io.Writer
	buf  []byte // reserved header space, then the frame body
	head [binary.MaxVarintLen64]byte
	// tail is the borrowed final payload of the frame under construction
	// (Float64sTail/Uint32sTail): End writes it after buf without staging.
	tail []byte
	// vec backs bufs, the vectored write of buf + tail; both live here so
	// End takes the address of no fresh slice header.
	vec  [2][]byte
	bufs net.Buffers
}

// headReserve is the space kept ahead of the body for the length prefix.
const headReserve = binary.MaxVarintLen64

// NewWriter returns a Writer framing onto w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Begin starts a frame of the given type, discarding any unfinished frame.
//
//s2c2:noalloc
func (w *Writer) Begin(t Type) {
	w.buf = growBytes(w.buf[:0], headReserve)
	w.tail = nil
	// Amortized: w.buf keeps its capacity across frames, so this append
	// only grows on the very first frame.
	//s2c2:waive noalloc
	w.buf = append(w.buf, byte(t))
}

// Uvarint appends an unsigned varint field.
//
//s2c2:noalloc
func (w *Writer) Uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

// Int appends a non-negative int as a varint.
//
//s2c2:noalloc
func (w *Writer) Int(v int) { w.Uvarint(uint64(v)) }

// Elem appends a bulk frame's element-type field.
//
//s2c2:noalloc
func (w *Writer) Elem(e Elem) { w.Uvarint(uint64(e)) }

// Float64 appends one float64 as raw IEEE-754 bits.
//
//s2c2:noalloc
func (w *Writer) Float64(v float64) {
	at := len(w.buf)
	w.buf = growBytes(w.buf, at+8)
	binary.LittleEndian.PutUint64(w.buf[at:], math.Float64bits(v))
}

// PendingBytes reports the size of the frame under construction, borrowed
// tail included (callers use it to scale write deadlines with the
// payload).
func (w *Writer) PendingBytes() int { return len(w.buf) + len(w.tail) }

// End writes the frame started by Begin — the body's length prefix
// followed by the body — as one Write call, or as one vectored write
// (writev on a TCP connection) when the frame ends in a borrowed tail. The
// scratch buffer is retained for the next frame; the tail is released.
//
//s2c2:noalloc
func (w *Writer) End() error {
	body := len(w.buf) - headReserve + len(w.tail)
	n := binary.PutUvarint(w.head[:], uint64(body))
	start := headReserve - n
	copy(w.buf[start:], w.head[:n])
	if len(w.tail) == 0 {
		_, err := w.w.Write(w.buf[start:])
		return err
	}
	w.vec[0], w.vec[1] = w.buf[start:], w.tail
	w.tail = nil
	w.bufs = w.vec[:]
	_, err := w.bufs.WriteTo(w.w)
	w.vec[1] = nil // a failed write must not pin the caller's slice
	return err
}

// Reader decodes frames from an io.Reader through one reused receive
// buffer. Not safe for concurrent use.
type Reader struct {
	r        io.Reader
	br       io.ByteReader // r's, resolved once: the assertion may allocate
	buf      []byte
	pay      Payload
	maxFrame int
	// one-byte scratch for the length prefix (readByte without a bufio
	// layer's allocation).
	b [1]byte
}

// NewReader returns a Reader with the DefaultMaxFrame limit.
func NewReader(r io.Reader) *Reader {
	br, _ := r.(io.ByteReader)
	return &Reader{r: r, br: br, maxFrame: DefaultMaxFrame}
}

// SetMaxFrame overrides the accepted frame-body limit.
func (r *Reader) SetMaxFrame(n int) { r.maxFrame = n }

// ReadByte reads one length-prefix byte. It exists so binary.ReadUvarint
// can consume the prefix through the Reader itself without an adapter
// allocation; wrap network sources in a bufio.Reader (as the rpc layer
// does) to avoid single-byte reads hitting the kernel.
//
//s2c2:noalloc
func (r *Reader) ReadByte() (byte, error) {
	if r.br != nil {
		return r.br.ReadByte()
	}
	_, err := io.ReadFull(r.r, r.b[:1])
	return r.b[0], err
}

// streamedHead is how much of a body-streamed frame Next reads eagerly:
// room for the largest scalar header such a frame can carry (six varint
// fields — elem, phase, seq, lo, hi, element count). Everything past it
// stays in the stream for the payload decoder to land in caller-owned
// storage.
const streamedHead = 6 * binary.MaxVarintLen64

// streamsBody reports whether a frame of this type is handed over
// header-first: partition chunks, whose bulk payload is large and has
// exactly one destination (the partition's rows).
func (t Type) streamsBody() bool { return t == TypePartitionChunk }

// Next reads one frame, returning its type and a Payload cursor over the
// body. The cursor (and any byte view it exposes) is valid only until the
// next call to Next. Partition-chunk frames are handed over header-first:
// only their first streamedHead bytes are buffered, and the element
// decoders read the rest of the payload from the stream straight into the
// caller's destination — so a chunk body that ends short surfaces there,
// as the cursor's sticky io.ErrUnexpectedEOF, not here.
//
//s2c2:noalloc
func (r *Reader) Next() (Type, *Payload, error) {
	if err := r.skipRest(); err != nil {
		return 0, nil, err
	}
	size, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, err
	}
	if size > uint64(r.maxFrame) {
		return 0, nil, ErrFrameTooBig
	}
	if size < 1 {
		return 0, nil, ErrMalformed // a frame has at least its type byte
	}
	b, err := r.ReadByte()
	if err != nil {
		return 0, nil, unexpectedEOF(err)
	}
	t := Type(b)
	eager, rest := int(size)-1, 0
	if t.streamsBody() && eager > streamedHead {
		eager, rest = streamedHead, eager-streamedHead
	}
	r.buf = growBytes(r.buf, eager)
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return 0, nil, unexpectedEOF(err)
	}
	r.pay = Payload{b: r.buf, r: r, rest: rest}
	return t, &r.pay, nil
}

// skipRest discards whatever the previous frame's consumer left unread in
// the stream, so frame boundaries hold even when a chunk body is ignored.
//
//s2c2:noalloc
func (r *Reader) skipRest() error {
	for r.pay.rest > 0 {
		r.buf = growBytes(r.buf, min(r.pay.rest, 32<<10))
		if _, err := io.ReadFull(r.r, r.buf); err != nil {
			return unexpectedEOF(err)
		}
		r.pay.rest -= len(r.buf)
	}
	return nil
}

// unexpectedEOF maps a clean EOF inside a frame to io.ErrUnexpectedEOF.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Payload is a decode cursor over one frame body. Decoding methods record
// the first failure in a sticky error — callers run the field reads
// straight through and check Err once at the end. All sticky errors are
// package sentinels, so the error path allocates nothing.
//
// The cursor aliases the Reader's reused frame buffer: it is only valid
// until the next call to Next. s2c2-vet (payloadescape) rejects stores
// that would let it outlive the frame.
//
//s2c2:frame-scoped
type Payload struct {
	b   []byte
	off int
	err error
	// r and rest describe the part of a header-first frame still in the
	// stream: rest body bytes follow b on r's source.
	r    *Reader
	rest int
}

// Err returns the first decode failure, or nil.
func (p *Payload) Err() error { return p.err }

// Remaining reports the undecoded byte count, buffered or still in the
// stream.
func (p *Payload) Remaining() int { return len(p.b) - p.off + p.rest }

// fromStream fills dst with the next len(dst) bytes of a header-first
// frame's unread body, read directly from the Reader's source. A body that
// ends short sets the sticky error.
//
//s2c2:noalloc
func (p *Payload) fromStream(dst []byte) {
	n, err := io.ReadFull(p.r.r, dst)
	p.rest -= n
	if err != nil {
		p.err = unexpectedEOF(err)
	}
}

// Reject marks the payload malformed. Decoders use it when a structurally
// valid field fails a higher-level invariant (e.g. an element count that
// cannot fit in the remaining bytes) so the failure surfaces through the
// same sticky-error path as raw decode errors.
func (p *Payload) Reject() {
	if p.err == nil {
		p.err = ErrMalformed
	}
}

// Float64 decodes one float64 field (0 after a failure).
//
//s2c2:noalloc
func (p *Payload) Float64() float64 {
	if p.err != nil {
		return 0
	}
	if len(p.b)-p.off < 8 {
		p.err = ErrTruncated
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(p.b[p.off:]))
	p.off += 8
	return v
}

// Uvarint decodes one varint field (0 after a failure).
//
//s2c2:noalloc
func (p *Payload) Uvarint() uint64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Uvarint(p.b[p.off:])
	if n <= 0 {
		if n == 0 {
			p.err = ErrTruncated
		} else {
			p.err = ErrMalformed
		}
		return 0
	}
	p.off += n
	return v
}

// Int decodes a non-negative int field. Values above MaxInt/2 for the
// platform's int are rejected, so the result is always safe to use in
// size arithmetic.
//
//s2c2:noalloc
func (p *Payload) Int() int {
	v := p.Uvarint()
	if p.err == nil && v > math.MaxInt/2 {
		p.err = ErrMalformed
		return 0
	}
	return int(v)
}

// Elem decodes a bulk frame's element-type field, rejecting any value but
// ElemFloat64 and ElemGF as malformed (ElemFloat64 after a failure).
//
//s2c2:noalloc
func (p *Payload) Elem() Elem {
	v := p.Uvarint()
	if v > uint64(ElemGF) {
		p.Reject()
		return ElemFloat64
	}
	return Elem(v)
}

// Float64s decodes a count-prefixed float64 payload, reusing dst's
// capacity (the caller-owned buffer idiom: pass last round's slice back in
// and steady state never reallocates). The count is validated against the
// remaining bytes by division — never by multiplication, which a hostile
// count could overflow into passing — before anything is sized to it.
//
//s2c2:noalloc
func (p *Payload) Float64s(dst []float64) []float64 {
	n := p.Int()
	if p.err != nil {
		return dst[:0]
	}
	if n > p.Remaining()/8 {
		p.err = ErrTruncated
		return dst[:0]
	}
	dst = grow(dst, n)
	p.float64sInto(dst)
	return dst
}

// Float64sInto decodes a count-prefixed float64 payload directly into dst,
// requiring the count to match len(dst) exactly — the zero-copy path for
// writing a partition chunk straight into its matrix rows.
//
//s2c2:noalloc
func (p *Payload) Float64sInto(dst []float64) error {
	n := p.Int()
	if p.err != nil {
		return p.err
	}
	if n != len(dst) {
		p.err = ErrMalformed
		return p.err
	}
	if n > p.Remaining()/8 {
		p.err = ErrTruncated
		return p.err
	}
	p.float64sInto(dst)
	return p.err
}

// Uint32sInto decodes a count-prefixed uint32 payload directly into dst,
// requiring the count to match len(dst) exactly — the zero-copy path for
// writing a GF partition chunk straight into its matrix rows.
//
//s2c2:noalloc
func (p *Payload) Uint32sInto(dst []uint32) error {
	n := p.Int()
	if p.err != nil {
		return p.err
	}
	if n != len(dst) {
		p.err = ErrMalformed
		return p.err
	}
	if n > p.Remaining()/4 {
		p.err = ErrTruncated
		return p.err
	}
	p.uint32sInto(dst)
	return p.err
}

// Uint32s decodes a count-prefixed uint32 payload, reusing dst's capacity.
//
//s2c2:noalloc
func (p *Payload) Uint32s(dst []uint32) []uint32 {
	n := p.Int()
	if p.err != nil {
		return dst[:0]
	}
	if n > p.Remaining()/4 {
		p.err = ErrTruncated
		return dst[:0]
	}
	dst = grow(dst, n)
	p.uint32sInto(dst)
	return dst
}

// growBytes returns s with length n, reallocating only when capacity is
// insufficient (geometric growth via append).
//
//s2c2:noalloc
func growBytes(s []byte, n int) []byte {
	if cap(s) >= n {
		return s[:n]
	}
	// Capacity growth: reached only until the buffer has seen the largest
	// frame, after which every call takes the branch above.
	//s2c2:waive noalloc
	return append(s[:cap(s)], make([]byte, n-cap(s))...)
}

// grow is the package-local grow-don't-copy helper (this package stays
// dependency-free by design, so it does not import the kernel package's
// GrowSlice). Contents are unspecified after a reallocation.
//
//s2c2:noalloc
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	// Capacity growth; callers reuse the returned slice across frames.
	//s2c2:waive noalloc
	return make([]T, n)
}
