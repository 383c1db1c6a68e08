package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	var net bytes.Buffer
	w := NewWriter(&net)
	floats := []float64{0, 1.5, -2.25, math.Pi, math.Inf(1), math.SmallestNonzeroFloat64}
	words := []uint32{0, 1, 1<<31 - 2, 123456789}

	w.Begin(TypeResult)
	w.Int(7)           // iter
	w.Int(2)           // phase
	w.Uvarint(1 << 40) // a large field (nanos-scale)
	w.Float64s(floats)
	w.Uint32s(words)
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	w.Begin(TypeShutdown)
	if err := w.End(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(bytes.NewReader(net.Bytes()))
	typ, p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeResult {
		t.Fatalf("type = %v, want %v", typ, TypeResult)
	}
	if got := p.Int(); got != 7 {
		t.Fatalf("iter = %d", got)
	}
	if got := p.Int(); got != 2 {
		t.Fatalf("phase = %d", got)
	}
	if got := p.Uvarint(); got != 1<<40 {
		t.Fatalf("large field = %d", got)
	}
	gotF := p.Float64s(nil)
	for i, v := range floats {
		if b, gb := math.Float64bits(v), math.Float64bits(gotF[i]); b != gb {
			t.Fatalf("float %d: bits %x != %x", i, gb, b)
		}
	}
	gotU := p.Uint32s(nil)
	for i, v := range words {
		if gotU[i] != v {
			t.Fatalf("uint32 %d: %d != %d", i, gotU[i], v)
		}
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if p.Remaining() != 0 {
		t.Fatalf("%d bytes left over", p.Remaining())
	}
	typ, _, err = r.Next()
	if err != nil || typ != TypeShutdown {
		t.Fatalf("second frame: %v %v", typ, err)
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want EOF", err)
	}
}

func TestReaderRejectsOversizedFrame(t *testing.T) {
	// A length prefix above the limit must be rejected before any buffer
	// is sized to it.
	var b []byte
	b = binary.AppendUvarint(b, uint64(DefaultMaxFrame)+1)
	r := NewReader(bytes.NewReader(b))
	if _, _, err := r.Next(); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v, want ErrFrameTooBig", err)
	}

	// A tighter configured limit applies too.
	var net bytes.Buffer
	w := NewWriter(&net)
	w.Begin(TypeWork)
	w.Float64s(make([]float64, 100))
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	r2 := NewReader(bytes.NewReader(net.Bytes()))
	r2.SetMaxFrame(16)
	if _, _, err := r2.Next(); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("err = %v, want ErrFrameTooBig", err)
	}
}

func TestReaderTruncatedStream(t *testing.T) {
	var net bytes.Buffer
	w := NewWriter(&net)
	w.Begin(TypeWork)
	w.Float64s([]float64{1, 2, 3, 4})
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	full := net.Bytes()
	// Cut the stream mid-body at every prefix length: the reader must
	// report an unexpected EOF, never decode garbage.
	for cut := 1; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		if _, _, err := r.Next(); !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestPayloadTruncatedFields(t *testing.T) {
	// A frame whose declared element count exceeds its actual bytes must
	// fail with ErrTruncated (sticky), not read out of bounds.
	var body []byte
	body = append(body, byte(TypeResult))
	body = binary.AppendUvarint(body, 1000) // claims 1000 floats, has none
	var net bytes.Buffer
	net.Write(binary.AppendUvarint(nil, uint64(len(body))))
	net.Write(body)
	r := NewReader(bytes.NewReader(net.Bytes()))
	_, p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	got := p.Float64s(nil)
	if len(got) != 0 {
		t.Fatalf("decoded %d floats from a truncated payload", len(got))
	}
	if !errors.Is(p.Err(), ErrTruncated) {
		t.Fatalf("sticky err = %v, want ErrTruncated", p.Err())
	}
	// Further reads stay failed.
	if v := p.Uvarint(); v != 0 || !errors.Is(p.Err(), ErrTruncated) {
		t.Fatal("sticky error did not stick")
	}
}

// TestHostileCountDoesNotOverflowGuard pins the count-validation fix: an
// element count chosen so that count*elemSize wraps around must still be
// rejected (by division against the remaining bytes), not passed through
// to a make() that panics.
func TestHostileCountDoesNotOverflowGuard(t *testing.T) {
	for _, count := range []uint64{1 << 61, (1 << 62) / 8 * 2, math.MaxInt64 / 2} {
		var body []byte
		body = append(body, byte(TypeResult))
		body = binary.AppendUvarint(body, count)
		var net bytes.Buffer
		net.Write(binary.AppendUvarint(nil, uint64(len(body))))
		net.Write(body)
		r := NewReader(bytes.NewReader(net.Bytes()))
		_, p, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Float64s(nil); len(got) != 0 || p.Err() == nil {
			t.Fatalf("count %d: decoded %d floats, err %v — hostile count slipped the guard", count, len(got), p.Err())
		}
	}
}

func TestFloat64sIntoCountMismatch(t *testing.T) {
	var net bytes.Buffer
	w := NewWriter(&net)
	w.Begin(TypePartitionChunk)
	w.Float64s([]float64{1, 2, 3})
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(net.Bytes()))
	_, p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 4) // expects 4, frame carries 3
	if err := p.Float64sInto(dst); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestUint32sIntoCountMismatch(t *testing.T) {
	var net bytes.Buffer
	w := NewWriter(&net)
	w.Begin(TypePartitionChunk)
	w.Uint32s([]uint32{1, 2, 3})
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	stream := net.Bytes()
	r := NewReader(bytes.NewReader(stream))
	_, p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]uint32, 4) // expects 4, frame carries 3
	if err := p.Uint32sInto(dst); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
	// Exact-count decode succeeds and lands the payload in place.
	r2 := NewReader(bytes.NewReader(stream))
	_, p2, err := r2.Next()
	if err != nil {
		t.Fatal(err)
	}
	dst3 := make([]uint32, 3)
	if err := p2.Uint32sInto(dst3); err != nil {
		t.Fatal(err)
	}
	for i, v := range []uint32{1, 2, 3} {
		if dst3[i] != v {
			t.Fatalf("dst[%d] = %d, want %d", i, dst3[i], v)
		}
	}
	// A declared count the body cannot hold is rejected by division, so a
	// hostile count cannot overflow the guard.
	var body []byte
	body = append(body, byte(TypePartitionChunk))
	body = binary.AppendUvarint(body, 1<<61)
	var hostile bytes.Buffer
	hostile.Write(binary.AppendUvarint(nil, uint64(len(body))))
	hostile.Write(body)
	r3 := NewReader(bytes.NewReader(hostile.Bytes()))
	_, p3, err := r3.Next()
	if err != nil {
		t.Fatal(err)
	}
	if err := p3.Uint32sInto(make([]uint32, 2)); err == nil {
		t.Fatal("hostile uint32 count decoded without error")
	}
}

func TestHandshake(t *testing.T) {
	var b bytes.Buffer
	if err := WriteHandshake(&b, VersionWire); err != nil {
		t.Fatal(err)
	}
	v, err := ReadHandshake(&b)
	if err != nil || v != VersionWire {
		t.Fatalf("handshake: v=%d err=%v", v, err)
	}
	if _, err := ReadHandshake(bytes.NewReader([]byte("BOGUS"))); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	if _, err := ReadHandshake(bytes.NewReader([]byte("S2"))); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short handshake: %v", err)
	}
}

func TestReaderZeroAllocSteadyState(t *testing.T) {
	// One warm reader decoding the same frame stream repeatedly must not
	// allocate: this is the master's per-message receive cost.
	var net bytes.Buffer
	w := NewWriter(&net)
	vals := make([]float64, 512)
	for i := range vals {
		vals[i] = float64(i) * 0.5
	}
	for f := 0; f < 4; f++ {
		w.Begin(TypeResult)
		w.Int(f)
		w.Float64s(vals)
		if err := w.End(); err != nil {
			t.Fatal(err)
		}
	}
	stream := net.Bytes()
	src := bytes.NewReader(stream)
	r := NewReader(src)
	dst := make([]float64, 0, len(vals))
	round := func() {
		src.Reset(stream) // r keeps reading src, as a connection's reader does
		for f := 0; f < 4; f++ {
			typ, p, err := r.Next()
			if err != nil || typ != TypeResult {
				t.Fatal(typ, err)
			}
			if got := p.Int(); got != f {
				t.Fatalf("frame %d decoded as %d", f, got)
			}
			dst = p.Float64s(dst)
			if err := p.Err(); err != nil {
				t.Fatal(err)
			}
		}
	}
	round() // warm: sizes the receive buffer and dst
	allocs := testing.AllocsPerRun(100, round)
	if allocs != 0 {
		t.Fatalf("steady-state frame decode allocates %v/op, want 0", allocs)
	}
}

func TestWriterZeroAllocSteadyState(t *testing.T) {
	w := NewWriter(io.Discard)
	vals := make([]float64, 512)
	round := func() {
		w.Begin(TypeWork)
		w.Int(3)
		w.Float64s(vals)
		if err := w.End(); err != nil {
			t.Fatal(err)
		}
	}
	round() // warm: sizes the scratch buffer
	allocs := testing.AllocsPerRun(100, round)
	if allocs != 0 {
		t.Fatalf("steady-state frame encode allocates %v/op, want 0", allocs)
	}
}
