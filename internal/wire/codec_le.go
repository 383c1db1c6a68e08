//go:build (386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm) && !noasm

package wire

import "unsafe"

// Bulk payload codec for little-endian hosts: an element slice's memory is
// already its wire encoding, so every bulk transfer is one memmove through
// a byte view — or none at all, for borrowed tails and streamed chunk
// bodies. codec_portable.go is the element-by-element equivalent.

func float64Bytes(vs []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), 8*len(vs))
}

func uint32Bytes(vs []uint32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(vs))), 4*len(vs))
}

// raw appends b to the frame body.
//
//s2c2:noalloc
func (w *Writer) raw(b []byte) {
	at := len(w.buf)
	w.buf = growBytes(w.buf, at+len(b))
	copy(w.buf[at:], b)
}

// Float64s appends a count-prefixed float64 payload as raw IEEE-754 bits.
//
//s2c2:noalloc
func (w *Writer) Float64s(vs []float64) {
	w.Uvarint(uint64(len(vs)))
	w.raw(float64Bytes(vs))
}

// Uint32s appends a count-prefixed uint32 payload (field-element rows).
//
//s2c2:noalloc
func (w *Writer) Uint32s(vs []uint32) {
	w.Uvarint(uint64(len(vs)))
	w.raw(uint32Bytes(vs))
}

// Float64sTail appends vs as the frame's final count-prefixed payload
// without staging it: End writes the element bytes straight from vs, which
// the caller must leave untouched until End returns. No field may follow.
//
//s2c2:noalloc
func (w *Writer) Float64sTail(vs []float64) {
	w.Uvarint(uint64(len(vs)))
	w.tail = float64Bytes(vs)
}

// Uint32sTail is Float64sTail for a uint32 payload.
//
//s2c2:noalloc
func (w *Writer) Uint32sTail(vs []uint32) {
	w.Uvarint(uint64(len(vs)))
	w.tail = uint32Bytes(vs)
}

// bytesInto moves the next len(dst) payload bytes into dst: the buffered
// ones by copy, the rest — a header-first frame's unread body — straight
// from the stream. Callers have validated len(dst) against Remaining.
//
//s2c2:noalloc
func (p *Payload) bytesInto(dst []byte) {
	n := copy(dst, p.b[p.off:])
	p.off += n
	if n < len(dst) {
		p.fromStream(dst[n:])
	}
}

//s2c2:noalloc
func (p *Payload) float64sInto(dst []float64) { p.bytesInto(float64Bytes(dst)) }

//s2c2:noalloc
func (p *Payload) uint32sInto(dst []uint32) { p.bytesInto(uint32Bytes(dst)) }
