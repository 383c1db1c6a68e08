package wire

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"
)

// BenchmarkWirePayload frames one bulk payload and decodes it back — the
// per-element cost of every Work and Result frame — at a round-sized
// (8 KB) and a chunk-sized (256 KB) payload. MB/s counts payload bytes
// once per encode + decode pair.
func BenchmarkWirePayload(b *testing.B) {
	for _, size := range []int{8 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("Float64s/%dKB", size>>10), func(b *testing.B) {
			benchPayload(b, make([]float64, size/8), (*Writer).Float64s, (*Payload).Float64s)
		})
		b.Run(fmt.Sprintf("Uint32s/%dKB", size>>10), func(b *testing.B) {
			benchPayload(b, make([]uint32, size/4), (*Writer).Uint32s, (*Payload).Uint32s)
		})
	}
}

func benchPayload[T any](b *testing.B, vals []T, put func(*Writer, []T), get func(*Payload, []T) []T) {
	var stream bytes.Buffer
	w := NewWriter(&stream)
	src := bytes.NewReader(nil)
	r := NewReader(src)
	dst := make([]T, 0, len(vals))
	b.SetBytes(int64(len(vals)) * int64(unsafe.Sizeof(vals[0])))
	b.ReportAllocs()
	for b.Loop() {
		stream.Reset()
		w.Begin(TypeResult)
		put(w, vals)
		if err := w.End(); err != nil {
			b.Fatal(err)
		}
		src.Reset(stream.Bytes())
		_, p, err := r.Next()
		if err != nil {
			b.Fatal(err)
		}
		if dst = get(p, dst); len(dst) != len(vals) {
			b.Fatal(p.Err())
		}
	}
}
