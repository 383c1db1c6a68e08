package coding

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/mat"
)

// The band-split encoders must produce bit-identical partitions to the
// serial sweep: every output row is accumulated in the same order by
// exactly one participant, regardless of how the bands are chunked.

func TestMDSEncodeParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	for _, shape := range []struct{ rows, cols, n, k int }{
		{200, 17, 6, 4},
		{37, 5, 5, 3}, // padded tail
		{8, 3, 4, 4},  // blockRows smaller than pool chunking
	} {
		a := mat.Rand(shape.rows, shape.cols, rng)
		serial, err := NewMDSCode(shape.n, shape.k)
		if err != nil {
			t.Fatal(err)
		}
		serial.SetExec(kernel.Exec{MaxFan: 1})
		parallel, err := NewMDSCode(shape.n, shape.k)
		if err != nil {
			t.Fatal(err)
		}
		parallel.SetExec(kernel.Exec{Pool: kernel.NewPool(4)})
		want := serial.Encode(a)
		got := parallel.Encode(a)
		for i := range want.Parts {
			wd, gd := want.Parts[i].Data(), got.Parts[i].Data()
			for q := range wd {
				if wd[q] != gd[q] {
					t.Fatalf("shape %+v: partition %d differs at %d: %v vs %v", shape, i, q, wd[q], gd[q])
				}
			}
		}
	}
}

func TestGFEncodeParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	rows, cols := 150, 9
	payload := make([]gf.Elem, rows*cols)
	for i := range payload {
		payload[i] = gf.New(rng.Uint64())
	}
	serial, _ := NewGFMDSCode(7, 5)
	serial.SetExec(kernel.Exec{MaxFan: 1})
	parallel, _ := NewGFMDSCode(7, 5)
	parallel.SetExec(kernel.Exec{Pool: kernel.NewPool(4)})
	want, err := serial.Encode(rows, cols, payload)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parallel.Encode(rows, cols, payload)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Parts {
		for r := 0; r < want.BlockRows; r++ {
			wr, gr := want.Parts[i].Row(r), got.Parts[i].Row(r)
			for q := range wr {
				if wr[q] != gr[q] {
					t.Fatalf("partition %d row %d differs", i, r)
				}
			}
		}
	}
}

func TestLagrangeEncodeParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	const n, k, size = 9, 4, 301
	blocks := make([][]gf.Elem, k)
	for j := range blocks {
		blocks[j] = make([]gf.Elem, size)
		for e := range blocks[j] {
			blocks[j][e] = gf.New(rng.Uint64())
		}
	}
	serial, _ := NewLagrangeCode(n, k)
	serial.SetExec(kernel.Exec{MaxFan: 1})
	parallel, _ := NewLagrangeCode(n, k)
	parallel.SetExec(kernel.Exec{Pool: kernel.NewPool(4)})
	want, err := serial.Encode(blocks)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parallel.Encode(blocks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for e := range want[i] {
			if want[i][e] != got[i][e] {
				t.Fatalf("share %d differs at %d", i, e)
			}
		}
	}
}

func TestPolyEncodeParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	a := mat.Rand(120, 22, rng)
	serial, _ := NewPolyCode(10, 3, 3)
	serial.SetExec(kernel.Exec{MaxFan: 1})
	parallel, _ := NewPolyCode(10, 3, 3)
	parallel.SetExec(kernel.Exec{Pool: kernel.NewPool(4)})
	want, err := serial.EncodeHessian(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parallel.EncodeHessian(a)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.PartsA {
		wa, ga := want.PartsA[i].Data(), got.PartsA[i].Data()
		for q := range wa {
			if wa[q] != ga[q] {
				t.Fatalf("A-partition %d differs at %d", i, q)
			}
		}
		wb, gb := want.PartsB[i].Data(), got.PartsB[i].Data()
		for q := range wb {
			if wb[q] != gb[q] {
				t.Fatalf("B-partition %d differs at %d", i, q)
			}
		}
	}
}

// TestDecodeDuplicatePartialsBitExact is the reassignment-path regression:
// the rpc master delivers a helper worker's original ranges and its
// reassigned extras as two partials from the same worker — and a slow
// worker's late result may even duplicate a (worker, row) pair outright.
// The decode must be bit-identical to the clean single-partial decode.
func TestDecodeDuplicatePartialsBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	a := mat.Rand(90, 11, rng)
	code, _ := NewMDSCode(6, 4)
	enc := code.Encode(a)
	x := make([]float64, 11)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	full := []Range{{0, enc.BlockRows}}
	clean := []*Partial{
		enc.WorkerCompute(0, x, full),
		enc.WorkerCompute(1, x, full),
		enc.WorkerCompute(3, x, full),
		enc.WorkerCompute(5, x, full),
	}
	want, err := enc.DecodeMatVec(clean)
	if err != nil {
		t.Fatal(err)
	}
	half := enc.BlockRows / 2
	dup := []*Partial{
		// Worker 0 split across two partials (original + reassigned extras).
		enc.WorkerCompute(0, x, []Range{{0, half}}),
		enc.WorkerCompute(1, x, full),
		enc.WorkerCompute(3, x, full),
		enc.WorkerCompute(0, x, []Range{{half, enc.BlockRows}}),
		enc.WorkerCompute(5, x, full),
		// Outright duplicate (worker, row) coverage from a late result.
		enc.WorkerCompute(1, x, []Range{{0, 2}}),
	}
	got, err := enc.DecodeMatVec(dup)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("row %d: duplicate-partial decode %v differs from clean decode %v", i, got[i], want[i])
		}
	}
}

// TestPolyDecodeDuplicatePartialsBitExact covers the same duplicate
// delivery through the batched bilinear decoder.
func TestPolyDecodeDuplicatePartialsBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	a := mat.Rand(48, 13, rng)
	code, _ := NewPolyCode(9, 2, 2)
	enc, err := code.EncodeHessian(a)
	if err != nil {
		t.Fatal(err)
	}
	d := make([]float64, 48)
	for i := range d {
		d[i] = rng.Float64()
	}
	full := []Range{{0, enc.BlockColsA}}
	var clean []*Partial
	for w := 0; w < 4; w++ {
		clean = append(clean, enc.WorkerCompute(w, d, full))
	}
	want, err := enc.Decode(clean)
	if err != nil {
		t.Fatal(err)
	}
	half := enc.BlockColsA / 2
	dup := []*Partial{
		enc.WorkerCompute(0, d, []Range{{0, half}}),
		enc.WorkerCompute(1, d, full),
		enc.WorkerCompute(2, d, full),
		enc.WorkerCompute(0, d, []Range{{half, enc.BlockColsA}}),
		enc.WorkerCompute(3, d, full),
		enc.WorkerCompute(2, d, []Range{{0, 1}}), // duplicate coverage
	}
	got, err := enc.Decode(dup)
	if err != nil {
		t.Fatal(err)
	}
	wd, gd := want.Data(), got.Data()
	for i := range wd {
		if wd[i] != gd[i] {
			t.Fatalf("duplicate-partial poly decode differs at %d", i)
		}
	}
}

// TestParallelEncodeSpeedup asserts the acceptance criterion — parallel
// encode at least 2× faster than serial — on machines with >= 4 cores.
// Single-core CI boxes skip it (there is nothing to parallelize over);
// the benchmarks below report the same ratio for any machine.
func TestParallelEncodeSpeedup(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need >= 4 cores to demonstrate the speedup, have %d", runtime.GOMAXPROCS(0))
	}
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(76))
	a := mat.Rand(2000, 200, rng)
	serial, _ := NewMDSCode(12, 10)
	serial.SetExec(kernel.Exec{MaxFan: 1})
	parallel, _ := NewMDSCode(12, 10)
	dstS := serial.Encode(a)
	dstP := parallel.Encode(a)
	time.Sleep(10 * time.Millisecond) // let the pool settle
	best := func(c *MDSCode, dst *EncodedMatrix) time.Duration {
		bestD := time.Duration(1 << 62)
		for trial := 0; trial < 7; trial++ {
			start := time.Now()
			for i := 0; i < 4; i++ {
				c.EncodeInto(a, dst)
			}
			if d := time.Since(start) / 4; d < bestD {
				bestD = d
			}
		}
		return bestD
	}
	ser := best(serial, dstS)
	par := best(parallel, dstP)
	t.Logf("encode 2000x200 (12,10): serial %v, parallel %v (%.2fx)", ser, par, float64(ser)/float64(par))
	if float64(ser) < 2*float64(par) {
		t.Fatalf("parallel encode only %.2fx over serial, want >= 2x", float64(ser)/float64(par))
	}
}

func BenchmarkMDSEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(77))
	a := mat.Rand(2000, 200, rng)
	b.Run("serial", func(b *testing.B) {
		code, _ := NewMDSCode(12, 10)
		code.SetExec(kernel.Exec{MaxFan: 1})
		dst := code.Encode(a)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			code.EncodeInto(a, dst)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		code, _ := NewMDSCode(12, 10)
		dst := code.Encode(a)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			code.EncodeInto(a, dst)
		}
	})
	// A fresh encode at the benchmark's dram-matvec shape — what a job's
	// set-up pays. B/op is the parity partition alone (A/k): the k
	// systematic partitions are views of A.
	b.Run("dram-matvec", func(b *testing.B) {
		big := mat.Rand(12288, 1024, rng)
		code, _ := NewMDSCode(4, 3)
		b.SetBytes(int64(8 * len(big.Data())))
		b.ReportAllocs()
		for b.Loop() {
			code.Encode(big)
		}
	})
}

// BenchmarkGFMDSEncode is a fresh exact encode at the benchmark's
// gf-batch-serve shape. B/op is the parity partition alone (data/k): the k
// systematic partitions are views of the data.
func BenchmarkGFMDSEncode(b *testing.B) {
	const rows, cols = 1536, 256
	rng := rand.New(rand.NewSource(79))
	data := make([]gf.Elem, rows*cols)
	for i := range data {
		data[i] = gf.New(rng.Uint64())
	}
	code, _ := NewGFMDSCode(4, 3)
	b.Run("gf-batch-serve", func(b *testing.B) {
		b.SetBytes(int64(4 * len(data)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := code.Encode(rows, cols, data); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkPolyDecodeBatched(b *testing.B) {
	rng := rand.New(rand.NewSource(78))
	a := mat.Rand(400, 96, rng)
	code, _ := NewPolyCode(10, 3, 3)
	enc, err := code.EncodeHessian(a)
	if err != nil {
		b.Fatal(err)
	}
	d := make([]float64, 400)
	for i := range d {
		d[i] = rng.Float64()
	}
	var partials []*Partial
	for w := 0; w < 9; w++ {
		partials = append(partials, enc.WorkerCompute(w, d, []Range{{0, enc.BlockColsA}}))
	}
	ws := enc.NewDecodeWorkspace()
	dst := mat.New(enc.ColsA, enc.ColsB)
	if _, err := enc.DecodeInto(dst, partials, ws); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.DecodeInto(dst, partials, ws); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPolyDecodeParallelMatchesSerial pins the fanned-out decode scatter:
// a decode spanning multiple per-worker-set segments must produce
// bit-identical output on the pool and on the serial path (each output
// row is accumulated by exactly one participant, in the same order).
func TestPolyDecodeParallelMatchesSerial(t *testing.T) {
	build := func(exec kernel.Exec) (*EncodedBilinear, []*Partial, []float64) {
		rng := rand.New(rand.NewSource(74)) // same data both runs
		a := mat.Rand(40, 256, rng)
		code, err := NewPolyCode(6, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		code.SetExec(exec)
		enc, err := code.EncodeHessian(a)
		if err != nil {
			t.Fatal(err)
		}
		if enc.decodeFlops() < polyParallelMinFlops {
			t.Fatalf("fixture below the parallel threshold: %d < %d", enc.decodeFlops(), polyParallelMinFlops)
		}
		d := make([]float64, 40)
		for i := range d {
			d[i] = rng.Float64()
		}
		// Two row segments with different worker sets: workers 0-3 cover
		// the lower half, workers 2-5 the upper half.
		half := enc.BlockColsA / 2
		var partials []*Partial
		for w := 0; w < 6; w++ {
			var ranges []Range
			switch {
			case w < 2:
				ranges = []Range{{0, half}}
			case w < 4:
				ranges = []Range{{0, enc.BlockColsA}}
			default:
				ranges = []Range{{half, enc.BlockColsA}}
			}
			partials = append(partials, enc.WorkerCompute(w, d, ranges))
		}
		return enc, partials, d
	}
	encS, partialsS, _ := build(kernel.Exec{MaxFan: 1})
	want, err := encS.DecodeInto(nil, partialsS, encS.NewDecodeWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	encP, partialsP, _ := build(kernel.Exec{Pool: kernel.NewPool(4)})
	ws := encP.NewDecodeWorkspace()
	for round := 0; round < 3; round++ {
		got, err := encP.DecodeInto(nil, partialsP, ws)
		if err != nil {
			t.Fatal(err)
		}
		if len(ws.table.list) < 2 {
			t.Fatalf("fixture produced %d bands, want >= 2", len(ws.table.list))
		}
		wd, gd := want.Data(), got.Data()
		for q := range wd {
			if wd[q] != gd[q] {
				t.Fatalf("round %d: decode differs at %d: %v vs %v", round, q, wd[q], gd[q])
			}
		}
	}
}
