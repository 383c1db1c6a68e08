package coding

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/mat"
)

// copyingEncode is the encoder the view-based EncodeInto replaced, kept as
// the test reference: pad A into a private copy, then build every
// partition — systematic ones included — as Zero + one Axpy per block.
func copyingEncode(c *MDSCode, a *mat.Dense) []*mat.Dense {
	cols := a.Cols()
	blockRows := mat.PaddedRows(a.Rows(), c.k) / c.k
	src := make([]float64, c.k*blockRows*cols)
	copy(src, a.Data())
	parts := make([]*mat.Dense, c.n)
	for i := range parts {
		parts[i] = mat.New(blockRows, cols)
		for j, g := range generatorRow(c.gen, c.k, i) {
			kernel.Axpy(g, src[j*blockRows*cols:(j+1)*blockRows*cols], parts[i].Data())
		}
	}
	return parts
}

// aliases reports whether part's storage lies inside whole's.
func aliases[T any](part, whole []T) bool {
	if len(part) == 0 || len(whole) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(&part[0]))
	lo := uintptr(unsafe.Pointer(&whole[0]))
	return p >= lo && p < lo+uintptr(len(whole))*unsafe.Sizeof(whole[0])
}

func TestEncodeByViewBitIdenticalToCopyingEncode(t *testing.T) {
	const n, k, cols = 7, 4, 9
	code, err := NewMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range []int{40, 41, 43, 3} { // rows % k = 0, 1, k-1; fewer rows than blocks
		rng := rand.New(rand.NewSource(int64(rows)))
		a := mat.Rand(rows, cols, rng)
		// Signed zeros: parity must mix to the same bits as ever, while a
		// systematic partition is A itself and keeps A's sign.
		a.Set(0, 0, math.Copysign(0, -1))
		a.Set(rows-1, cols-1, 0)
		before := append([]float64(nil), a.Data()...)
		enc := code.Encode(a)
		want := copyingEncode(code, a)
		blockRows := mat.PaddedRows(rows, k) / k
		for i, p := range enc.Parts {
			if r, c := p.Dims(); r != blockRows || c != cols {
				t.Fatalf("rows %d: partition %d is %dx%d, want %dx%d", rows, i, r, c, blockRows, cols)
			}
			for e, v := range p.Data() {
				w := want[i].Data()[e]
				if v != w || (i >= k && math.Float64bits(v) != math.Float64bits(w)) {
					t.Fatalf("rows %d: partition %d element %d = %x, copying encode %x",
						rows, i, e, math.Float64bits(v), math.Float64bits(w))
				}
			}
			full := (i+1)*blockRows <= rows
			switch {
			case i < k && full:
				if &p.Data()[0] != &a.Data()[i*blockRows*cols] {
					t.Fatalf("rows %d: systematic partition %d is not a view of A's block", rows, i)
				}
				if cap(p.Data()) != len(p.Data()) {
					t.Fatalf("rows %d: view %d has capacity %d past its %d elements", rows, i, cap(p.Data()), len(p.Data()))
				}
			case aliases(p.Data(), a.Data()):
				t.Fatalf("rows %d: partition %d (parity or padded) shares storage with A", rows, i)
			}
		}
		for e, v := range a.Data() {
			if math.Float64bits(v) != math.Float64bits(before[e]) {
				t.Fatalf("rows %d: Encode modified A at %d", rows, e)
			}
		}
	}
}

// TestEncodeIntoRepointsViews pins the borrow contract of the re-encode
// path: parity and padded-block storage is reused, systematic views move
// to the new matrix, and a changed row count re-pads correctly.
func TestEncodeIntoRepointsViews(t *testing.T) {
	const n, k, cols = 6, 4, 5
	code, _ := NewMDSCode(n, k)
	rng := rand.New(rand.NewSource(9))
	a := mat.Rand(41, cols, rng) // blockRows 11, block 3 padded
	enc := code.Encode(a)
	parity, padded := &enc.Parts[k].Data()[0], &enc.Parts[k-1].Data()[0]
	b := mat.Rand(43, cols, rng) // same blockRows, different padding
	if got := code.EncodeInto(b, enc); got != enc {
		t.Fatal("EncodeInto allocated a new encoding for a matching shape")
	}
	if &enc.Parts[k].Data()[0] != parity || &enc.Parts[k-1].Data()[0] != padded {
		t.Fatal("EncodeInto did not reuse parity / padded-block storage")
	}
	want := copyingEncode(code, b)
	for i, p := range enc.Parts {
		if !p.ApproxEqual(want[i], 0) {
			t.Fatalf("re-encoded partition %d differs from a fresh encode", i)
		}
	}
	if &enc.Parts[0].Data()[0] != &b.Data()[0] || enc.OrigRows != 43 {
		t.Fatal("re-encode left the systematic views on the previous matrix")
	}
}

// TestGFEncodeInPlaceBitIdenticalToStagedEncode pins the exact code's
// borrow contract: full systematic partitions are capacity-capped views of
// the input, a padded last block and every parity partition own their
// storage, every value equals the staged encoder's, and the input is only
// read.
func TestGFEncodeInPlaceBitIdenticalToStagedEncode(t *testing.T) {
	const n, k, cols = 6, 4, 7
	code, err := NewGFMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range []int{40, 41, 43, 3} { // rows % k = 0, 1, k-1; fewer rows than blocks
		rng := rand.New(rand.NewSource(int64(rows)))
		data := make([]gf.Elem, rows*cols)
		for i := range data {
			data[i] = gf.New(rng.Uint64())
		}
		before := append([]gf.Elem(nil), data...)
		enc, err := code.Encode(rows, cols, data)
		if err != nil {
			t.Fatal(err)
		}
		// Reference: the staged encoder — copy every block, mix row by row.
		blockRows := (rows + k - 1) / k
		staged := make([]gf.Elem, k*blockRows*cols)
		copy(staged, data)
		for i, p := range enc.Parts {
			want := gf.NewMatrixFromData(blockRows, cols, make([]gf.Elem, blockRows*cols))
			for j := 0; j < k; j++ {
				for r := 0; r < blockRows; r++ {
					gf.Axpy(want.Row(r), generatorRow(code.gen, code.k, i)[j], staged[(j*blockRows+r)*cols:(j*blockRows+r+1)*cols])
				}
			}
			for e, v := range p.Data() {
				if v != want.Data()[e] {
					t.Fatalf("rows %d: GF partition %d element %d = %d, staged encode %d", rows, i, e, v, want.Data()[e])
				}
			}
			switch {
			case i < k && (i+1)*blockRows <= rows:
				if &p.Data()[0] != &data[i*blockRows*cols] {
					t.Fatalf("rows %d: systematic partition %d is not a view of its data block", rows, i)
				}
				if cap(p.Data()) != len(p.Data()) {
					t.Fatalf("rows %d: view %d has capacity %d past its %d elements", rows, i, cap(p.Data()), len(p.Data()))
				}
			case aliases(p.Data(), data):
				t.Fatalf("rows %d: GF partition %d (parity or padded) shares storage with the input", rows, i)
			}
		}
		for e, v := range data {
			if v != before[e] {
				t.Fatalf("rows %d: Encode modified its input at %d", rows, e)
			}
		}
	}
}
