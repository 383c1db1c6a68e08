package s2c2_test

// Stack benchmarks: decode bands and workspaces, the polynomial and
// Lagrange codes, planning and one end-to-end simulated round. Each
// layer's own kernels are benchmarked in its package; the paper's figures
// are regenerated by `s2c2-exp -exp <id>`. Run with:
//
//	go test -run '^$' -bench=. -benchmem .

import (
	"math/rand"
	"testing"

	s2c2 "github.com/coded-computing/s2c2"
	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/trace"
)

func BenchmarkMDSDecodeWorkspace(b *testing.B) {
	// DecodeMatVecInto with a reused workspace: the steady-state decode of
	// an iterative job (0 allocs/op; compare BenchmarkMDSDecodeParityHeavy).
	rng := rand.New(rand.NewSource(5))
	a := mat.Rand(2000, 50, rng)
	code, _ := coding.NewMDSCode(12, 10)
	enc := code.Encode(a)
	x := make([]float64, 50)
	for i := range x {
		x[i] = rng.Float64()
	}
	var partials []*coding.Partial
	for _, w := range []int{0, 1, 2, 3, 4, 5, 6, 7, 10, 11} {
		partials = append(partials, enc.WorkerCompute(w, x, []coding.Range{{Lo: 0, Hi: enc.BlockRows}}))
	}
	ws := enc.NewDecodeWorkspace()
	dst := make([]float64, enc.OrigRows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.DecodeMatVecInto(dst, partials, ws); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMDSDecodeSystematicHeavy(b *testing.B) {
	// Decode dominated by systematic partitions — the common S2C2 case.
	rng := rand.New(rand.NewSource(4))
	a := mat.Rand(2000, 50, rng)
	code, _ := coding.NewMDSCode(12, 10)
	enc := code.Encode(a)
	x := make([]float64, 50)
	for i := range x {
		x[i] = rng.Float64()
	}
	var partials []*coding.Partial
	for w := 0; w < 10; w++ {
		partials = append(partials, enc.WorkerCompute(w, x, []coding.Range{{Lo: 0, Hi: enc.BlockRows}}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.DecodeMatVec(partials); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMDSDecodeParityHeavy(b *testing.B) {
	// Worst case: the two slowest systematic workers replaced by parity.
	rng := rand.New(rand.NewSource(5))
	a := mat.Rand(2000, 50, rng)
	code, _ := coding.NewMDSCode(12, 10)
	enc := code.Encode(a)
	x := make([]float64, 50)
	for i := range x {
		x[i] = rng.Float64()
	}
	var partials []*coding.Partial
	for _, w := range []int{0, 1, 2, 3, 4, 5, 6, 7, 10, 11} {
		partials = append(partials, enc.WorkerCompute(w, x, []coding.Range{{Lo: 0, Hi: enc.BlockRows}}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.DecodeMatVec(partials); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGFMDSDecodeExact(b *testing.B) {
	// The exact-field backend (the float-vs-GF(p) ablation).
	rng := rand.New(rand.NewSource(6))
	rows, cols := 2000, 50
	data := make([]gf.Elem, rows*cols)
	for i := range data {
		data[i] = gf.New(rng.Uint64())
	}
	code, _ := coding.NewGFMDSCode(12, 10)
	enc, err := code.Encode(rows, cols, data)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]gf.Elem, cols)
	for i := range x {
		x[i] = gf.New(rng.Uint64())
	}
	var partials []*coding.GFPartial
	for _, w := range []int{0, 1, 2, 3, 4, 5, 6, 7, 10, 11} {
		p := enc.WorkerCompute(w, x, []coding.Range{{Lo: 0, Hi: enc.BlockRows}})
		partials = append(partials, p)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.DecodeMatVec(partials); err != nil {
			b.Fatal(err)
		}
	}
}

// s2c2Ranges plans one GeneralS2C2 round for the given relative speeds
// and returns each worker's assigned row ranges.
func s2c2Ranges(b *testing.B, n, k, blockRows int, speeds []float64) [][]coding.Range {
	plan, err := (&sched.GeneralS2C2{N: n, K: k, BlockRows: blockRows}).Plan(speeds)
	if err != nil {
		b.Fatal(err)
	}
	return plan.Assignments
}

// benchSpeeds returns n relative speeds: uniform, or spread over
// [0.5, 1.5) so the plan's range boundaries fall everywhere.
func benchSpeeds(n int, uniform bool) []float64 {
	rng := rand.New(rand.NewSource(12))
	speeds := make([]float64, n)
	for i := range speeds {
		speeds[i] = 1
		if !uniform {
			speeds[i] = 0.5 + rng.Float64()
		}
	}
	return speeds
}

// BenchmarkMDSDecodeBands times the band-wise float64 decode of one S2C2
// round at the benchmark workloads' shapes: dram-matvec (MDS(4,3), four
// 1024-row bands), straggler-mix (MDS(6,4), bands of a few hundred rows
// or fewer) and sim-paper (n = 12, k = 6, bands of a few rows) — long
// bands, where the solve runs as vector sweeps, and short ones, where
// per-band cost is what is left.
func BenchmarkMDSDecodeBands(b *testing.B) {
	for _, sh := range []struct {
		name                string
		n, k, rows, cols, w int
		uniform             bool
	}{
		{"dram-matvec", 4, 3, 12288, 64, 1, true},
		{"straggler-mix", 6, 4, 6144, 64, 1, false},
		{"sim-paper", 12, 6, 600, 48, 1, false},
	} {
		b.Run(sh.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(13))
			code, _ := coding.NewMDSCode(sh.n, sh.k)
			enc := code.Encode(mat.Rand(sh.rows, sh.cols, rng))
			xs := make([]float64, sh.w*sh.cols)
			for i := range xs {
				xs[i] = rng.Float64()
			}
			var partials []*coding.Partial
			for w, ranges := range s2c2Ranges(b, sh.n, sh.k, enc.BlockRows, benchSpeeds(sh.n, sh.uniform)) {
				partials = append(partials, enc.WorkerComputeBatchInto(w, xs, sh.w, ranges, nil))
			}
			ws := enc.NewDecodeWorkspace()
			dst := make([]float64, enc.OrigRows*sh.w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := enc.DecodeMatVecInto(dst, partials, ws); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGFMDSDecodeBands is the exact decoder's counterpart at the
// gf-batch-serve shape: GF MDS(4,3), 1536×256, width-8 batch, four
// 128-row bands with parity in every decode set.
func BenchmarkGFMDSDecodeBands(b *testing.B) {
	const n, k, rows, cols, width = 4, 3, 1536, 256, 8
	rng := rand.New(rand.NewSource(14))
	data := make([]gf.Elem, rows*cols)
	for i := range data {
		data[i] = gf.New(rng.Uint64())
	}
	code, _ := coding.NewGFMDSCode(n, k)
	enc, err := code.Encode(rows, cols, data)
	if err != nil {
		b.Fatal(err)
	}
	xs := make([]gf.Elem, width*cols)
	for i := range xs {
		xs[i] = gf.New(rng.Uint64())
	}
	var partials []*coding.GFPartial
	for w, ranges := range s2c2Ranges(b, n, k, enc.BlockRows, benchSpeeds(n, true)) {
		p := enc.WorkerComputeBatchInto(w, xs, width, ranges, nil)
		partials = append(partials, p)
	}
	ws := enc.NewDecodeWorkspace()
	dst := make([]gf.Elem, rows*width)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.DecodeMatVecInto(dst, partials, ws); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPolyEncodeHessian(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	a := mat.Rand(300, 120, rng)
	code, _ := coding.NewPolyCode(12, 3, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.EncodeHessian(a); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPolyDecodeHessian(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	a := mat.Rand(300, 120, rng)
	code, _ := coding.NewPolyCode(12, 3, 3)
	enc, _ := code.EncodeHessian(a)
	d := make([]float64, 300)
	for i := range d {
		d[i] = rng.Float64()
	}
	var partials []*coding.Partial
	for w := 0; w < 9; w++ {
		partials = append(partials, enc.WorkerCompute(w, d, []coding.Range{{Lo: 0, Hi: enc.BlockColsA}}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Decode(partials); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLagrangeQuadratic(b *testing.B) {
	// Encode + degree-2 compute + decode over GF(2^31-1), 12 workers.
	rng := rand.New(rand.NewSource(15))
	code, _ := coding.NewLagrangeCode(12, 5)
	blocks := make([][]gf.Elem, 5)
	for j := range blocks {
		blk := make([]gf.Elem, 4096)
		for e := range blk {
			blk[e] = gf.New(rng.Uint64())
		}
		blocks[j] = blk
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shares, err := code.Encode(blocks)
		if err != nil {
			b.Fatal(err)
		}
		results := map[int][]gf.Elem{}
		for w := 0; w < code.RecoveryThreshold(2); w++ {
			out := make([]gf.Elem, len(shares[w]))
			for e, v := range shares[w] {
				out[e] = gf.Add(gf.Mul(v, v), v)
			}
			results[w] = out
		}
		if _, err := code.Decode(results, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGeneralS2C2Plan(b *testing.B) {
	speeds := make([]float64, 50)
	rng := rand.New(rand.NewSource(9))
	for i := range speeds {
		speeds[i] = 0.5 + rng.Float64()
	}
	g := &sched.GeneralS2C2{N: 50, K: 40, BlockRows: 4000, Granularity: 200}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Plan(speeds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLSTMTrainEpoch(b *testing.B) {
	tr := trace.CloudStable(8, 200, 10)
	cfg := predict.DefaultLSTMConfig()
	cfg.Epochs = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := predict.NewLSTM(cfg)
		if err := m.Fit(tr.Speeds); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEndIterationS2C2(b *testing.B) {
	// One full simulated S2C2 round including numeric encode-free compute
	// and decode on a (10,7) cluster.
	data := s2c2.NewClassificationDataset(1000, 100, 12)
	code, _ := s2c2.NewMDSCode(10, 7)
	enc := code.Encode(data.X)
	tr := s2c2.ControlledCluster(10, 1, 50, 12)
	cluster := &s2c2.CodedCluster{
		Enc:      enc,
		Strategy: &s2c2.GeneralS2C2{N: 10, K: 7, BlockRows: enc.BlockRows},
		Trace:    tr,
		Comm:     s2c2.DefaultComm(),
		Timeout:  s2c2.DefaultTimeout(),
		Numeric:  true,
	}
	x := make([]float64, 100)
	for i := range x {
		x[i] = 0.01 * float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := cluster.RunIteration(i, x); err != nil {
			b.Fatal(err)
		}
	}
}
