package kernel

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"testing"
)

// Kernel-layer micro-benchmarks: dispatched vs naive mat-vec, and the
// persistent pool vs the spawn-goroutines-per-call pattern it replaced.
// Run with:
//
//	go test ./internal/kernel -bench . -benchmem

func benchMatVec(b *testing.B, f func(dst, a []float64, rows, cols int, x []float64)) {
	rng := rand.New(rand.NewSource(1))
	const rows, cols = 1024, 1024
	a, x := randSlice(rows*cols, rng), randSlice(cols, rng)
	dst := make([]float64, rows)
	b.SetBytes(8 * rows * cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(dst, a, rows, cols, x)
	}
}

func BenchmarkMatVecKernel1024(b *testing.B) { benchMatVec(b, MatVec) }
func BenchmarkMatVecNaive1024(b *testing.B)  { benchMatVec(b, naiveMatVec) }

// BenchmarkMatVecRangeShapes times the single-x mat-vec at the shapes the
// benchmark workloads run it: sim-paper's three phase partitions (100×48,
// 8×600, 40×240) and dram-matvec's 1024-column rows, reporting ns per
// row — where the multi-row tiles pay off and where the sweep is
// bandwidth-bound.
func BenchmarkMatVecRangeShapes(b *testing.B) {
	for _, sh := range [][2]int{{100, 48}, {8, 600}, {40, 240}, {1024, 1024}} {
		rows, cols := sh[0], sh[1]
		b.Run(fmt.Sprintf("%dx%d", rows, cols), func(b *testing.B) {
			rng := rand.New(rand.NewSource(4))
			a, x := randSlice(rows*cols, rng), randSlice(cols, rng)
			dst := make([]float64, rows)
			b.SetBytes(int64(8 * rows * cols))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatVecRange(dst, a, cols, x, 0, rows)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

// spawnMatVec is the pre-refactor parallel pattern: fresh goroutines and a
// WaitGroup per call.
func spawnMatVec(dst, a []float64, rows, cols int, x []float64, workers int) {
	var wg sync.WaitGroup
	band := (rows + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * band
		hi := lo + band
		if hi > rows {
			hi = rows
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			MatVecRange(dst[lo:hi], a, cols, x, lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

func BenchmarkParallelMatVecPooled(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const rows, cols = 1024, 1024
	a, x := randSlice(rows*cols, rng), randSlice(cols, rng)
	dst := make([]float64, rows)
	p := Default()
	band, chunk := matVecBand(dst, a, cols, x), ChunkRows(2*cols)
	b.SetBytes(8 * rows * cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.ForMax(rows, chunk, 0, band)
	}
}

func BenchmarkParallelMatVecSpawn(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const rows, cols = 1024, 1024
	a, x := randSlice(rows*cols, rng), randSlice(cols, rng)
	dst := make([]float64, rows)
	workers := Default().Workers()
	b.SetBytes(8 * rows * cols)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spawnMatVec(dst, a, rows, cols, x, workers)
	}
}

// BenchmarkGFMatVecBatch times the fused GF(2³¹−1) sweeps at the
// gf-batch-serve worker shape (a 384×256 partition, cache-resident) on
// every backend: w1 is the multi-row single-x tile behind GFMatVecMod31,
// w5–w8 the lane-fused batch sweep behind GFMatVecBatchMod31 on either
// side of the width where the avx512 sweep switches a lane group from the
// pack-free kernel to the 8-lane tile. On an IFMA CPU the avx512-dot4
// rows force the pack-free route an AVX-512 CPU without IFMA takes.
func BenchmarkGFMatVecBatch(b *testing.B) {
	const rows, cols = 384, 256
	a := make([]uint32, rows*cols)
	xs := make([]uint32, 8*cols)
	for i := range a {
		a[i] = (uint32(i) * 2654435761) % uint32(p31)
	}
	for i := range xs {
		xs[i] = (uint32(i) * 40503) % uint32(p31)
	}
	dst := make([]uint32, rows*8)
	for _, backend := range Backends() {
		withBackend(b, backend, func() {
			b.Run("w1/"+backend, func(b *testing.B) {
				b.SetBytes(4 * rows * cols)
				for i := 0; i < b.N; i++ {
					GFMatVecMod31(dst[:rows], a, cols, xs[:cols], 0, rows)
				}
			})
			forEachGFTileRoute(backend, func(route string) {
				for w := 5; w <= 8; w++ {
					b.Run(fmt.Sprintf("w%d/%s%s", w, backend, route), func(b *testing.B) {
						b.SetBytes(4 * rows * cols)
						for i := 0; i < b.N; i++ {
							GFMatVecBatchMod31(dst, a, cols, xs, w, 0, rows)
						}
					})
				}
			})
		})
	}
}

var firstTouchSink []float64

// BenchmarkMapFirstTouch is a worker landing a streamed 32 MiB partition:
// allocation, then one write per element, in a Map (one mapping, no
// clearing by Go) and in a make (which clears what the kernel already
// zeroed). The heap is handed back to the OS before every iteration, so
// each one pays the first-touch page faults a partition's set-up pays.
func BenchmarkMapFirstTouch(b *testing.B) {
	const n = 32 << 20 / 8
	for _, c := range []struct {
		name  string
		alloc func() (data []float64, release func())
	}{
		{"map", func() ([]float64, func()) { m := Map[float64](n); return m.Data(), m.Release }},
		{"make", func() ([]float64, func()) { return make([]float64, n), func() {} }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(n * 8)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				firstTouchSink = nil
				debug.FreeOSMemory()
				b.StartTimer()
				d, release := c.alloc()
				for j := range d {
					d[j] = 1
				}
				firstTouchSink = d
				b.StopTimer()
				firstTouchSink = nil
				release()
				b.StartTimer()
			}
		})
	}
}
