//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm) || noasm

package wire

import (
	"encoding/binary"
	"math"
)

// Portable bulk payload codec: element-by-element little-endian encoding,
// for big-endian hosts and for the noasm build (which keeps these loops
// exercised by CI on little-endian machines). Byte-for-byte the same
// frames as codec_le.go; tails and streamed chunk bodies are staged
// through the Writer's and Reader's buffers instead of bypassing them.

// Float64s appends a count-prefixed float64 payload as raw IEEE-754 bits.
//
//s2c2:noalloc
func (w *Writer) Float64s(vs []float64) {
	w.Uvarint(uint64(len(vs)))
	at := len(w.buf)
	w.buf = growBytes(w.buf, at+8*len(vs))
	for _, v := range vs {
		binary.LittleEndian.PutUint64(w.buf[at:], math.Float64bits(v))
		at += 8
	}
}

// Uint32s appends a count-prefixed uint32 payload (field-element rows).
//
//s2c2:noalloc
func (w *Writer) Uint32s(vs []uint32) {
	w.Uvarint(uint64(len(vs)))
	at := len(w.buf)
	w.buf = growBytes(w.buf, at+4*len(vs))
	for _, v := range vs {
		binary.LittleEndian.PutUint32(w.buf[at:], v)
		at += 4
	}
}

// Float64sTail appends vs as the frame's final count-prefixed payload. No
// field may follow.
//
//s2c2:noalloc
func (w *Writer) Float64sTail(vs []float64) { w.Float64s(vs) }

// Uint32sTail is Float64sTail for a uint32 payload.
//
//s2c2:noalloc
func (w *Writer) Uint32sTail(vs []uint32) { w.Uint32s(vs) }

// take returns the next n payload bytes, first pulling the unread part of
// a header-first frame into the Reader's buffer. Callers have validated n
// against Remaining; a short stream leaves the sticky error set and
// returns zeroed bytes.
//
//s2c2:noalloc
func (p *Payload) take(n int) []byte {
	if have := len(p.b) - p.off; have < n {
		// p.b is the Reader's buffer; extend it in place.
		p.r.buf = growBytes(p.r.buf, len(p.b)+n-have)
		p.fromStream(p.r.buf[len(p.b):])
		p.b = p.r.buf
	}
	b := p.b[p.off : p.off+n]
	p.off += n
	return b
}

//s2c2:noalloc
func (p *Payload) float64sInto(dst []float64) {
	b := p.take(8 * len(dst))
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

//s2c2:noalloc
func (p *Payload) uint32sInto(dst []uint32) {
	b := p.take(4 * len(dst))
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
}
