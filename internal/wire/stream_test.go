package wire

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
	"testing/iotest"
)

// Tests for the partition-chunk data path: borrowed-tail frames on the
// Writer, header-first frames on the Reader. They run against whichever
// codec file the build selects (default, or -tags noasm for the portable
// one).

// chunkHead is the scalar header of an rpc partition chunk: elem, phase,
// seq, lo, hi.
const chunkHead = 5

// chunkFrame frames one chunk the way rpc does — the chunkHead scalar
// header fields, then the payload — staged (Float64s) or as a borrowed
// tail.
func chunkFrame(t *testing.T, w *Writer, vals []float64, tail bool) {
	t.Helper()
	w.Begin(TypePartitionChunk)
	for i := 0; i < chunkHead; i++ {
		w.Int(1000 * i)
	}
	if tail {
		w.Float64sTail(vals)
	} else {
		w.Float64s(vals)
	}
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
}

func testFloats(n int) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		vs[i] = math.Sqrt(float64(i)) - 3
	}
	return vs
}

// payloadSizes straddle the eager header window (streamedHead bytes): an
// empty payload, ones that fit inside it, ones cut by it mid-element, and
// ones far past it.
var payloadSizes = []int{0, 1, 4, 5, 6, 7, 64, 4099}

func TestTailFrameByteIdenticalToStagedFrame(t *testing.T) {
	for _, n := range payloadSizes {
		vals := testFloats(n)
		var staged, tailed bytes.Buffer
		chunkFrame(t, NewWriter(&staged), vals, false)
		chunkFrame(t, NewWriter(&tailed), vals, true)
		if !bytes.Equal(staged.Bytes(), tailed.Bytes()) {
			t.Fatalf("%d floats: tail frame differs from staged frame", n)
		}
		words := make([]uint32, n)
		for i := range words {
			words[i] = uint32(i) * 2654435761
		}
		staged.Reset()
		tailed.Reset()
		for _, c := range []struct {
			buf  *bytes.Buffer
			tail bool
		}{{&staged, false}, {&tailed, true}} {
			w := NewWriter(c.buf)
			w.Begin(TypePartitionChunk)
			w.Elem(ElemGF)
			if c.tail {
				w.Uint32sTail(words)
			} else {
				w.Uint32s(words)
			}
			if err := w.End(); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(staged.Bytes(), tailed.Bytes()) {
			t.Fatalf("%d uint32s: tail frame differs from staged frame", n)
		}
	}
}

func TestChunkBodyStreamsIntoDestination(t *testing.T) {
	sources := map[string]func(io.Reader) io.Reader{
		"plain":   func(r io.Reader) io.Reader { return r },
		"onebyte": iotest.OneByteReader,
		"half":    iotest.HalfReader,
		"bufio":   func(r io.Reader) io.Reader { return bufio.NewReaderSize(r, 16) },
	}
	for name, wrap := range sources {
		for _, n := range payloadSizes {
			vals := testFloats(n)
			var stream bytes.Buffer
			w := NewWriter(&stream)
			chunkFrame(t, w, vals, true)
			w.Begin(TypePartitionAck) // the frame after the chunk must still parse
			w.Int(42)
			if err := w.End(); err != nil {
				t.Fatal(err)
			}
			r := NewReader(wrap(bytes.NewReader(stream.Bytes())))
			typ, p, err := r.Next()
			if err != nil || typ != TypePartitionChunk {
				t.Fatalf("%s/%d: Next = %v, %v", name, n, typ, err)
			}
			for i := 0; i < chunkHead; i++ {
				if got := p.Int(); got != 1000*i {
					t.Fatalf("%s/%d: header field %d = %d", name, n, i, got)
				}
			}
			if want := 8*n + 1; n > 0 && p.Remaining() < want {
				t.Fatalf("%s/%d: Remaining = %d before the payload, want >= %d", name, n, p.Remaining(), want)
			}
			dst := make([]float64, n)
			if err := p.Float64sInto(dst); err != nil {
				t.Fatalf("%s/%d: Float64sInto: %v", name, n, err)
			}
			for i, v := range vals {
				if math.Float64bits(dst[i]) != math.Float64bits(v) {
					t.Fatalf("%s/%d: element %d = %v, want %v", name, n, i, dst[i], v)
				}
			}
			if p.Remaining() != 0 {
				t.Fatalf("%s/%d: %d bytes left after the payload", name, n, p.Remaining())
			}
			typ, p, err = r.Next()
			if err != nil || typ != TypePartitionAck || p.Int() != 42 {
				t.Fatalf("%s/%d: frame after the chunk: %v, %v", name, n, typ, err)
			}
		}
	}
}

// TestChunkBodyIgnoredKeepsFraming: a consumer that never drains a chunk
// body must still find the next frame where it starts.
func TestChunkBodyIgnoredKeepsFraming(t *testing.T) {
	var stream bytes.Buffer
	w := NewWriter(&stream)
	chunkFrame(t, w, testFloats(100_000), true) // longer than skipRest's step
	chunkFrame(t, w, testFloats(3), true)
	r := NewReader(bytes.NewReader(stream.Bytes()))
	if _, _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	typ, p, err := r.Next()
	if err != nil || typ != TypePartitionChunk {
		t.Fatalf("second chunk: %v, %v", typ, err)
	}
	for i := 0; i < chunkHead; i++ {
		p.Int()
	}
	if got := p.Float64s(nil); len(got) != 3 || p.Err() != nil {
		t.Fatalf("second chunk payload: %d elements, err %v", len(got), p.Err())
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want EOF", err)
	}
}

// TestChunkBodyTruncatedAtEveryCut: wherever the stream ends inside a
// chunk frame, either Next or the payload decode reports an unexpected
// EOF — a short body is never a successful decode.
func TestChunkBodyTruncatedAtEveryCut(t *testing.T) {
	var stream bytes.Buffer
	chunkFrame(t, NewWriter(&stream), testFloats(40), true)
	full := stream.Bytes()
	for cut := 1; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		_, p, err := r.Next()
		if err == nil {
			for i := 0; i < chunkHead; i++ {
				p.Int()
			}
			err = p.Float64sInto(make([]float64, 40))
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d of %d: err = %v, want ErrUnexpectedEOF", cut, len(full), err)
		}
	}
}

// TestChunkCountCheckedBeforeAnyByteLands: a streamed chunk whose element
// count disagrees with the destination, or with the frame's own size, is
// rejected with the destination untouched.
func TestChunkCountCheckedBeforeAnyByteLands(t *testing.T) {
	var stream bytes.Buffer
	chunkFrame(t, NewWriter(&stream), testFloats(500), true)
	open := func() *Payload {
		_, p, err := NewReader(bytes.NewReader(stream.Bytes())).Next()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < chunkHead; i++ {
			p.Int()
		}
		return p
	}
	untouched := func(dst []float64) {
		t.Helper()
		for i, v := range dst {
			if v != -1 {
				t.Fatalf("rejected chunk wrote element %d", i)
			}
		}
	}
	for _, n := range []int{499, 501} {
		dst := make([]float64, n)
		for i := range dst {
			dst[i] = -1
		}
		if err := open().Float64sInto(dst); !errors.Is(err, ErrMalformed) {
			t.Fatalf("len(dst) %d vs count 500: err = %v, want ErrMalformed", n, err)
		}
		untouched(dst)
	}
	// A frame that declares more elements than its length prefix covers.
	var hostile bytes.Buffer
	w := NewWriter(&hostile)
	w.Begin(TypePartitionChunk)
	for i := 0; i < chunkHead; i++ {
		w.Int(i)
	}
	w.Uvarint(500)
	for i := 0; i < 499; i++ {
		w.Float64(1)
	}
	if err := w.End(); err != nil {
		t.Fatal(err)
	}
	_, p, err := NewReader(bytes.NewReader(hostile.Bytes())).Next()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < chunkHead; i++ {
		p.Int()
	}
	dst := make([]float64, 500)
	for i := range dst {
		dst[i] = -1
	}
	if err := p.Float64sInto(dst); !errors.Is(err, ErrTruncated) {
		t.Fatalf("count past the frame: err = %v, want ErrTruncated", err)
	}
	untouched(dst)
}

func TestChunkStreamZeroAllocSteadyState(t *testing.T) {
	vals := testFloats(32 << 10)
	var stream bytes.Buffer
	w := NewWriter(&stream)
	src := bytes.NewReader(nil)
	r := NewReader(src)
	dst := make([]float64, len(vals))
	round := func() {
		stream.Reset()
		w.Begin(TypePartitionChunk)
		w.Int(1)
		w.Float64sTail(vals)
		if err := w.End(); err != nil {
			t.Fatal(err)
		}
		src.Reset(stream.Bytes())
		_, p, err := r.Next()
		if err != nil {
			t.Fatal(err)
		}
		p.Int()
		if err := p.Float64sInto(dst); err != nil {
			t.Fatal(err)
		}
	}
	round() // warm: sizes the stream and the buffers
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("steady-state chunk send + receive allocates %v/op, want 0", allocs)
	}
}
