package rpc

import (
	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/wire"
)

// The round, worker and partition-stream paths are written once, over
// T coding.Element: float64 rows or GF(2³¹−1) field elements. What really
// differs by element type lives behind a codec — a zero-size descriptor
// the generic code holds as a type parameter C and calls through once per
// frame or per row range, never per element.

// Partition is a coded partition as Distribute ships it and a worker
// holds it: *mat.Dense for float64, *gf.Matrix for GF(2³¹−1).
type Partition[T coding.Element] interface {
	Dims() (rows, cols int)
	Data() []T
}

// elemSpec is the wire-level description of one element type: the elem
// field its bulk frames carry and its payload element size.
type elemSpec struct {
	label string    // message prefix: "" or "GF "
	size  int       // payload bytes per element
	elem  wire.Elem // first field of its Work, Result and partition frames
}

var (
	floatSpec = elemSpec{size: 8, elem: wire.ElemFloat64}
	gfSpec    = elemSpec{label: "GF ", size: 4, elem: wire.ElemGF}
)

// codec is the per-element descriptor: the elem field, the payload codec,
// the partition header over stored rows, the worker's mat-vec sweep, and
// the ingest check on stored partition rows.
type codec[T coding.Element] interface {
	spec() *elemSpec
	// put appends a count-prefixed payload; putTail appends one as the
	// frame's borrowed final field.
	put(w *wire.Writer, v []T)
	putTail(w *wire.Writer, v []T)
	// get decodes a count-prefixed payload reusing dst's capacity; into
	// decodes one whose count must equal len(dst).
	get(p *wire.Payload, dst []T) []T
	into(p *wire.Payload, dst []T) error
	wrap(rows, cols int, data []T) Partition[T]
	// sweep computes rows [lo, hi) of part against bw concatenated input
	// vectors into dst, row-major bw-wide.
	sweep(dst []T, part Partition[T], xs []T, bw, lo, hi int)
	// valid reports whether landed partition rows are safe to compute on.
	valid(rows []T) bool
}

// floatCodec is the float64 codec.
type floatCodec struct{}

func (floatCodec) spec() *elemSpec                               { return &floatSpec }
func (floatCodec) put(w *wire.Writer, v []float64)               { w.Float64s(v) }
func (floatCodec) putTail(w *wire.Writer, v []float64)           { w.Float64sTail(v) }
func (floatCodec) get(p *wire.Payload, dst []float64) []float64  { return p.Float64s(dst) }
func (floatCodec) into(p *wire.Payload, dst []float64) error     { return p.Float64sInto(dst) }
func (floatCodec) wrap(r, c int, d []float64) Partition[float64] { return mat.NewFromData(r, c, d) }
func (floatCodec) valid([]float64) bool                          { return true }

// sweep runs the fused multi-x kernel for batched rounds: one pass over
// the band serves every lane.
func (floatCodec) sweep(dst []float64, part Partition[float64], xs []float64, bw, lo, hi int) {
	_, cols := part.Dims()
	if bw == 1 {
		kernel.MatVecRange(dst, part.Data(), cols, xs, lo, hi)
	} else {
		kernel.MatVecRangeBatch(dst, part.Data(), cols, xs, bw, lo, hi)
	}
}

// gfCodec is the GF(2³¹−1) codec: payloads travel as uint32 lanes.
type gfCodec struct{}

func (gfCodec) spec() *elemSpec                     { return &gfSpec }
func (gfCodec) put(w *wire.Writer, v []gf.Elem)     { w.Uint32s(gf.AsUint32s(v)) }
func (gfCodec) putTail(w *wire.Writer, v []gf.Elem) { w.Uint32sTail(gf.AsUint32s(v)) }
func (gfCodec) get(p *wire.Payload, dst []gf.Elem) []gf.Elem {
	return gf.AsElems(p.Uint32s(gf.AsUint32s(dst)))
}
func (gfCodec) into(p *wire.Payload, dst []gf.Elem) error     { return p.Uint32sInto(gf.AsUint32s(dst)) }
func (gfCodec) wrap(r, c int, d []gf.Elem) Partition[gf.Elem] { return gf.NewMatrixFromData(r, c, d) }

// valid rejects non-canonical lanes: the worker's Mersenne-folded mat-vec
// bounds its intermediate arithmetic on every element being < P, so a
// lane ≥ P is a protocol error at ingest, not a silent wraparound later.
func (gfCodec) valid(rows []gf.Elem) bool { return gf.Valid(rows) }

func (gfCodec) sweep(dst []gf.Elem, part Partition[gf.Elem], xs []gf.Elem, bw, lo, hi int) {
	m := part.(*gf.Matrix)
	if bw == 1 {
		m.MulVecRangeInto(dst, xs, lo, hi)
	} else {
		m.MulVecBatchRangeInto(dst, xs, bw, lo, hi)
	}
}
