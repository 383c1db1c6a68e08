package kernel

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

// Tests for the batched multi-x float64 kernel and the GF(2³¹−1) dot-lane
// kernel: cross-backend equivalence, band invariance (the determinism
// contract distributed rounds rely on), boundary-value GF exactness
// against a per-element reference, and the gated speedup acceptance tests.

// guardedDst returns rows×w batch output storage between two guard rows
// of -0, and the whole padded slice. A tile store that leaks past the band
// accumulates into a guard row, and even a +0 sum (a zero-padded lane)
// turns -0 into +0.
func guardedDst(rows, w int) (dst, padded []float64) {
	padded = make([]float64, (rows+2)*w)
	for i := range padded {
		padded[i] = math.Copysign(0, -1)
	}
	return padded[w : (rows+1)*w], padded
}

// guardsIntact reports whether both guard rows of a guardedDst still hold
// -0 in every element.
func guardsIntact(padded []float64, w int) bool {
	n := len(padded)
	for i := 0; i < w; i++ {
		for _, v := range []float64{padded[i], padded[n-w+i]} {
			if math.Float64bits(v) != math.Float64bits(math.Copysign(0, -1)) {
				return false
			}
		}
	}
	return true
}

// TestMatVecBatchBackendsMatchReference sweeps every row residue mod 8
// (rows 8+r, so the multi-row tiles and the single-row tail both run) and
// every lane residue mod 8 (the masked or scratch lane tails), with guard
// rows around dst, on every backend.
func TestMatVecBatchBackendsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	shapes := [][2]int{{1, 1}, {3, 7}, {4, 8}, {5, 9}, {7, 16}, {13, 31}, {33, 129}, {5, 300}}
	widths := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 14, 16, 17}
	for r := 1; r <= 8; r++ {
		shapes = append(shapes, [2]int{8 + r, 2*r + 15})
	}
	shapes = append(shapes, [2]int{15, kcBlock + 7}) // two x-tile passes
	for _, s := range shapes {
		rows, cols := s[0], s[1]
		a := randSlice(rows*cols, rng)
		for _, w := range widths {
			xs := randSlice(w*cols, rng)
			want := make([]float64, rows*w)
			for i := 0; i < rows; i++ {
				for l := 0; l < w; l++ {
					want[i*w+l] = dotRef(a[i*cols:(i+1)*cols], xs[l*cols:(l+1)*cols])
				}
			}
			for _, backend := range Backends() {
				withBackend(t, backend, func() {
					got, padded := guardedDst(rows, w)
					MatVecRangeBatch(got, a, cols, xs, w, 0, rows)
					if d := maxAbsDiff(got, want); d > 1e-11*float64(cols+1) {
						t.Errorf("backend=%s %dx%d w=%d: MatVecRangeBatch max diff %g", backend, rows, cols, w, d)
					}
					if !guardsIntact(padded, w) {
						t.Errorf("backend=%s %dx%d w=%d: guard row clobbered", backend, rows, cols, w)
					}
					// Every lane must match the same backend's result for that
					// lane computed alone — within rounding (the avx2 batch
					// kernel accumulates in mat-mul tile order, the single-x
					// kernel in dot order).
					single := make([]float64, rows)
					for l := 0; l < w; l++ {
						MatVec(single, a, rows, cols, xs[l*cols:(l+1)*cols])
						for i := 0; i < rows; i++ {
							if math.Abs(got[i*w+l]-single[i]) > 1e-11*float64(cols+1) {
								t.Errorf("backend=%s %dx%d w=%d lane=%d row=%d: batch %v single %v",
									backend, rows, cols, w, l, i, got[i*w+l], single[i])
							}
						}
					}
				})
			}
		}
	}
}

// TestMatVecBatchBandInvariant pins the determinism contract banded
// callers rely on: splitting a batched sweep at arbitrary row boundaries
// must be bit-identical to the unbanded call on the same backend (workers
// band rows across a pool; the decoded round compares exactly against an
// unbanded local computation). The nan case puts a 0·Inf term in row 3,
// which the unbanded call runs through a multi-row tile and band 1
// through the single-row kernel: both must produce the same NaN, and the
// Inf must not spill into a zero-padded lane of the next row.
func TestMatVecBatchBandInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	const rows, cols = 23, 67
	for _, c := range []struct {
		w   int
		nan bool
	}{{1, false}, {3, false}, {8, false}, {12, false}, {3, true}, {12, true}} {
		w := c.w
		a := randSlice(rows*cols, rng)
		xs := randSlice(w*cols, rng)
		if c.nan {
			a[3*cols+5] = math.Inf(1)
			xs[5] = 0 // lane 0: 0·Inf → NaN in row 3
		}
		for _, backend := range Backends() {
			withBackend(t, backend, func() {
				whole := make([]float64, rows*w)
				MatVecRangeBatch(whole, a, cols, xs, w, 0, rows)
				if c.nan && !math.IsNaN(whole[3*w]) {
					t.Fatalf("backend=%s w=%d: row 3 lane 0 = %v, want the 0·Inf NaN", backend, w, whole[3*w])
				}
				for _, band := range []int{1, 2, 3, 5, 7, 16} {
					banded := make([]float64, rows*w)
					for lo := 0; lo < rows; lo += band {
						hi := min(lo+band, rows)
						MatVecRangeBatch(banded[lo*w:hi*w], a, cols, xs, w, lo, hi)
					}
					for i := range banded {
						if math.Float64bits(banded[i]) != math.Float64bits(whole[i]) {
							t.Fatalf("backend=%s w=%d band=%d i=%d: banded %v != whole %v (must be bit-identical)",
								backend, w, band, i, banded[i], whole[i])
						}
					}
				}
			})
		}
	}
}

// TestMatMulMaskedTailBoundaries sweeps every row and lane residue mod 8
// through sub-bands of the batch sweep, which runs the mat-mul tile
// kernels (mulTile*): on the AVX-512 backend these land in the opmasked
// lane tails and the single-row kernel. A band starting at lo > 0 offsets
// every tile's A and dst pointers, so its stores must stay inside its own
// guarded slot and agree with the naive reference.
func TestMatMulMaskedTailBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for mres := 1; mres <= 8; mres++ {
		for w := 1; w <= 8; w++ {
			rows := 8 + mres
			cols := 2*mres + w // odd sizes straddle the x-tile packer too
			a, xs := randSlice(rows*cols, rng), randSlice(w*cols, rng)
			want := make([]float64, rows*w)
			for i := 0; i < rows; i++ {
				for l := 0; l < w; l++ {
					want[i*w+l] = dotRef(a[i*cols:(i+1)*cols], xs[l*cols:(l+1)*cols])
				}
			}
			for _, backend := range Backends() {
				withBackend(t, backend, func() {
					for _, band := range [][2]int{{0, rows}, {1, rows}, {1, rows - 1}, {mres, rows}} {
						lo, hi := band[0], band[1]
						got, padded := guardedDst(hi-lo, w)
						MatVecRangeBatch(got, a, cols, xs, w, lo, hi)
						if d := maxAbsDiff(got, want[lo*w:hi*w]); d > 1e-9*float64(cols+1) {
							t.Errorf("backend=%s rows=%d cols=%d w=%d band=[%d,%d): max diff %g", backend, rows, cols, w, lo, hi, d)
						}
						if !guardsIntact(padded, w) {
							t.Fatalf("backend=%s rows=%d cols=%d w=%d band=[%d,%d): guard row clobbered", backend, rows, cols, w, lo, hi)
						}
					}
				})
			}
		}
	}
}

// TestMatMulBandInvariantNaN pins the determinism contract of the tile
// kernel pair under non-finite terms: a 0·Inf NaN placed in a multi-row
// tile's first lane, or in the single-row tail's last (masked) lane, must
// come out where the naive reference puts it — NaN in its own output, ±Inf
// in the rest of its row, nothing non-finite in a neighbouring row, which
// a store of the zero-padded lanes (Inf·0) would reach — and every row
// banding must reproduce the unbanded sweep bit for bit.
func TestMatMulBandInvariantNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	const rows, cols, c = 23, 29, 5
	for _, w := range []int{3, 8, 12} {
		for _, pos := range [][2]int{{3, 0}, {rows - 1, w - 1}} {
			row, lane := pos[0], pos[1]
			a := randSlice(rows*cols, rng)
			xs := randSlice(w*cols, rng)
			a[row*cols+c] = math.Inf(1)
			xs[lane*cols+c] = 0
			want := make([]float64, rows*w)
			for i := 0; i < rows; i++ {
				for l := 0; l < w; l++ {
					want[i*w+l] = dotRef(a[i*cols:(i+1)*cols], xs[l*cols:(l+1)*cols])
				}
			}
			for _, backend := range Backends() {
				withBackend(t, backend, func() {
					whole := make([]float64, rows*w)
					MatVecRangeBatch(whole, a, cols, xs, w, 0, rows)
					if !math.IsNaN(whole[row*w+lane]) {
						t.Fatalf("backend=%s w=%d: row %d lane %d = %v, want the 0·Inf NaN", backend, w, row, lane, whole[row*w+lane])
					}
					for i := range whole {
						if !floatsEquivalent(whole[i], want[i], 1e-9*float64(cols+1)) {
							t.Fatalf("backend=%s w=%d NaN at (%d,%d): out %d = %v, reference %v", backend, w, row, lane, i, whole[i], want[i])
						}
					}
					for _, band := range []int{1, 2, 3, 5, 8} {
						banded := make([]float64, rows*w)
						for lo := 0; lo < rows; lo += band {
							hi := min(lo+band, rows)
							MatVecRangeBatch(banded[lo*w:hi*w], a, cols, xs, w, lo, hi)
						}
						for i := range banded {
							if math.Float64bits(banded[i]) != math.Float64bits(whole[i]) {
								t.Fatalf("backend=%s w=%d band=%d i=%d: banded %v != whole %v (must be bit-identical)",
									backend, w, band, i, banded[i], whole[i])
							}
						}
					}
				})
			}
		}
	}
}

// FuzzMatVecBatchBackends drives the batch sweep's tile kernels over
// fuzzed shapes — rows below 16 (both tile heights and the single-row
// tail), cols up to past kcBlock (a second x-tile pass), 1–17 lanes (a
// full and a partial lane group) — and values that include NaN and ±Inf,
// against dotRef per output, with guard rows around dst.
func FuzzMatVecBatchBackends(f *testing.F) {
	f.Add(uint8(9), uint16(13), uint8(2), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(15), uint16(kcBlock+3), uint8(13), []byte{0xFE, 1, 2, 3, 0xFD, 9})
	f.Add(uint8(6), uint16(17), uint8(5), []byte{0xFF, 4, 3, 2, 1})
	f.Fuzz(func(t *testing.T, r8 uint8, c16 uint16, w8 uint8, data []byte) {
		rows, cols, w := int(r8%16), int(c16%(kcBlock+40)), 1+int(w8%17)
		if len(data) == 0 {
			t.Skip()
		}
		at := func(i int) float64 { return fuzzByteToFloat(data[i%len(data)]) }
		a := make([]float64, rows*cols)
		xs := make([]float64, w*cols)
		for i := range a {
			a[i] = at(i)
		}
		for i := range xs {
			xs[i] = at(i + len(a))
		}
		want := make([]float64, rows*w)
		for i := 0; i < rows; i++ {
			for l := 0; l < w; l++ {
				want[i*w+l] = dotRef(a[i*cols:(i+1)*cols], xs[l*cols:(l+1)*cols])
			}
		}
		for _, backend := range Backends() {
			withBackend(t, backend, func() {
				got, padded := guardedDst(rows, w)
				MatVecRangeBatch(got, a, cols, xs, w, 0, rows)
				for i := range got {
					if !floatsEquivalent(got[i], want[i], 1e-9*float64(cols+1)) {
						t.Errorf("backend=%s rows=%d cols=%d w=%d i=%d: %v want %v", backend, rows, cols, w, i, got[i], want[i])
					}
				}
				if !guardsIntact(padded, w) {
					t.Errorf("backend=%s rows=%d cols=%d w=%d: guard row clobbered", backend, rows, cols, w)
				}
			})
		}
	})
}

// gfDotRef is the per-element scalar reference the dot-lane kernel must
// match exactly: one gfMulAdd31 chain, no vectorization.
func gfDotRef(row, x []uint32) uint32 {
	var acc uint32
	for j := range row {
		acc = gfMulAdd31(acc, row[j], x[j])
	}
	return acc
}

// TestGFMatVecBackendsExact checks the dot-lane kernel on every backend
// against the per-element reference: boundary lanes (0, 1, p−1, and the
// non-canonical p itself, which callers may hold transiently), worst-case
// fold bounds (long rows of p−1 · p−1), and every length straddling the
// 8-lane blocks and scalar tail.
func TestGFMatVecBackendsExact(t *testing.T) {
	const p = uint32(p31)
	rng := rand.New(rand.NewSource(63))
	boundary := []uint32{0, 1, 2, p - 1, p - 2, p / 2, p}
	for cols := 0; cols <= 40; cols++ {
		rows := 3
		a := make([]uint32, rows*cols)
		x := make([]uint32, cols)
		for i := range a {
			if i < len(boundary) {
				a[i] = boundary[i]
			} else {
				a[i] = rng.Uint32() % p
			}
		}
		for i := range x {
			if i < len(boundary) {
				x[i] = boundary[len(boundary)-1-i]
			} else {
				x[i] = rng.Uint32() % p
			}
		}
		want := make([]uint32, rows)
		for i := 0; i < rows; i++ {
			want[i] = gfDotRef(a[i*cols:(i+1)*cols], x)
		}
		for _, backend := range Backends() {
			withBackend(t, backend, func() {
				got := make([]uint32, rows)
				GFMatVecMod31(got, a, cols, x, 0, rows)
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("backend=%s cols=%d row=%d: %d != reference %d", backend, cols, i, got[i], want[i])
					}
				}
				// Sub-ranges must agree with the full product.
				if rows > 2 {
					part := make([]uint32, rows-2)
					GFMatVecMod31(part, a, cols, x, 1, rows-1)
					for i := range part {
						if part[i] != want[i+1] {
							t.Fatalf("backend=%s cols=%d: range row %d mismatch", backend, cols, i+1)
						}
					}
				}
			})
		}
	}
	// Worst-case fold bound: a long all-(p−1) row against an all-(p−1) x
	// keeps every product at its 62-bit maximum.
	const long = 10007
	a := make([]uint32, long)
	x := make([]uint32, long)
	for i := range a {
		a[i], x[i] = p-1, p-1
	}
	want := gfDotRef(a, x)
	for _, backend := range Backends() {
		withBackend(t, backend, func() {
			got := make([]uint32, 1)
			GFMatVecMod31(got, a, long, x, 0, 1)
			if got[0] != want {
				t.Fatalf("backend=%s long all-(p-1) row: %d != reference %d", backend, got[0], want)
			}
		})
	}
}

// TestGFMatVecBatchMatchesSingle: a w-lane GF batch must equal w single-x
// sweeps exactly on every backend (modular arithmetic leaves no rounding
// slack anywhere).
func TestGFMatVecBatchMatchesSingle(t *testing.T) {
	const p = uint32(p31)
	rng := rand.New(rand.NewSource(64))
	for _, shape := range [][2]int{{1, 1}, {5, 9}, {7, 24}, {16, 33}} {
		rows, cols := shape[0], shape[1]
		for _, w := range []int{1, 2, 3, 4, 8, 9} {
			a := make([]uint32, rows*cols)
			xs := make([]uint32, w*cols)
			for i := range a {
				a[i] = rng.Uint32() % p
			}
			for i := range xs {
				xs[i] = rng.Uint32() % p
			}
			for _, backend := range Backends() {
				withBackend(t, backend, func() {
					got := make([]uint32, rows*w)
					GFMatVecBatchMod31(got, a, cols, xs, w, 0, rows)
					single := make([]uint32, rows)
					for l := 0; l < w; l++ {
						GFMatVecMod31(single, a, cols, xs[l*cols:(l+1)*cols], 0, rows)
						for i := 0; i < rows; i++ {
							if got[i*w+l] != single[i] {
								t.Fatalf("backend=%s %dx%d w=%d lane=%d row=%d: batch %d != single %d",
									backend, rows, cols, w, l, i, got[i*w+l], single[i])
							}
						}
					}
				})
			}
		}
	}
}

func FuzzGFMatVecBackends(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, []byte{7, 6, 5, 4, 3, 2, 1, 0})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F, 0xFE, 0xFF, 0xFF, 0x7F}, []byte{0xFF, 0xFF, 0xFF, 0x7F, 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, rowData, xData []byte) {
		if len(rowData) > 1<<12 || len(xData) > 1<<12 {
			t.Skip()
		}
		const p = uint32(p31)
		n := min(len(rowData), len(xData)) / 4
		row := make([]uint32, n)
		x := make([]uint32, n)
		for i := 0; i < n; i++ {
			row[i] = (uint32(rowData[i*4]) | uint32(rowData[i*4+1])<<8 | uint32(rowData[i*4+2])<<16 | uint32(rowData[i*4+3])<<24) % p
			x[i] = (uint32(xData[i*4]) | uint32(xData[i*4+1])<<8 | uint32(xData[i*4+2])<<16 | uint32(xData[i*4+3])<<24) % p
		}
		want := gfDotRef(row, x)
		for _, backend := range Backends() {
			withBackend(t, backend, func() {
				got := make([]uint32, 1)
				GFMatVecMod31(got, row, n, x, 0, 1)
				if got[0] != want {
					t.Fatalf("backend=%s n=%d: %d != reference %d", backend, n, got[0], want)
				}
			})
		}
	})
}

// TestGFMatVecVectorSpeedup asserts the acceptance criterion for the GF
// dot-lane kernel: the dispatched vector backend at least 1.5× over the
// scalar fold at a cache-resident 512².
func TestGFMatVecVectorSpeedup(t *testing.T) {
	skipUnlessVectorDispatched(t)
	const rows, cols = 512, 512
	a := make([]uint32, rows*cols)
	x := make([]uint32, cols)
	for i := range a {
		a[i] = (uint32(i) * 2654435761) % uint32(p31)
	}
	for i := range x {
		x[i] = (uint32(i) * 40503) % uint32(p31)
	}
	dst := make([]uint32, rows)
	vec := ActiveBackend()
	mv := func() { GFMatVecMod31(dst, a, cols, x, 0, rows) }
	scalar, vector := bestOfAlternating(7, onBackend(t, "generic", 20, mv), onBackend(t, vec, 20, mv))
	t.Logf("GFMatVec %dx%d: generic %v, %s %v (%.2fx)", rows, cols, scalar, vec, vector, float64(scalar)/float64(vector))
	if float64(scalar) < 1.5*float64(vector) {
		t.Fatalf("vector GFMatVec only %.2fx over scalar, want >= 1.5x", float64(scalar)/float64(vector))
	}
}

// TestMatVecBatchVectorSpeedup asserts the acceptance criterion for the
// batched kernel on the dispatched vector backend: one 8-lane sweep at
// least 2× the throughput of eight single-x sweeps over the same A. The
// matrix is sized well past L2 so the single-x sweeps pay the full A
// stream each time — the DRAM-bound gap the batch exists to close.
func TestMatVecBatchVectorSpeedup(t *testing.T) {
	skipUnlessVectorDispatched(t)
	const rows, cols, w = 1024, 1024, 8
	rng := rand.New(rand.NewSource(65))
	a := randSlice(rows*cols, rng)
	xs := randSlice(w*cols, rng)
	batchDst := make([]float64, rows*w)
	singleDst := make([]float64, rows)
	batch, single := bestOfAlternating(5,
		func() time.Duration {
			return timeRuns(3, func() { MatVecRangeBatch(batchDst, a, cols, xs, w, 0, rows) })
		},
		func() time.Duration {
			return timeRuns(3, func() {
				for l := 0; l < w; l++ {
					MatVec(singleDst, a, rows, cols, xs[l*cols:(l+1)*cols])
				}
			})
		})
	t.Logf("MatVecRangeBatch %dx%d w=%d: batch %v, %d singles %v (%.2fx)",
		rows, cols, w, batch, w, single, float64(single)/float64(batch))
	if float64(single) < 2*float64(batch) {
		t.Fatalf("batched sweep only %.2fx over %d single sweeps, want >= 2x", float64(single)/float64(batch), w)
	}
}

// BenchmarkBatchKernels reports the new kernels under every backend, the
// same side-by-side shape as BenchmarkKernelBackends.
func BenchmarkBatchKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(66))
	const rows, cols, w = 512, 512, 8
	a := randSlice(rows*cols, rng)
	xs := randSlice(w*cols, rng)
	dst := make([]float64, rows*w)
	ga := make([]uint32, rows*cols)
	gx := make([]uint32, w*cols)
	for i := range ga {
		ga[i] = (uint32(i) * 2654435761) % uint32(p31)
	}
	for i := range gx {
		gx[i] = (uint32(i) * 40503) % uint32(p31)
	}
	gdst := make([]uint32, rows*w)
	prev := ActiveBackend()
	defer SetBackend(prev) //nolint:errcheck
	for _, backend := range Backends() {
		if err := SetBackend(backend); err != nil {
			b.Fatal(err)
		}
		b.Run("MatVecBatch512w8/"+backend, func(b *testing.B) {
			b.SetBytes(8 * rows * cols)
			for i := 0; i < b.N; i++ {
				MatVecRangeBatch(dst, a, cols, xs, w, 0, rows)
			}
		})
		b.Run("GFMatVec512/"+backend, func(b *testing.B) {
			b.SetBytes(4 * rows * cols)
			for i := 0; i < b.N; i++ {
				GFMatVecMod31(gdst[:rows], ga, cols, gx[:cols], 0, rows)
			}
		})
		b.Run("GFMatVecBatch512w8/"+backend, func(b *testing.B) {
			b.SetBytes(4 * rows * cols)
			for i := 0; i < b.N; i++ {
				GFMatVecBatchMod31(gdst, ga, cols, gx, w, 0, rows)
			}
		})
	}
}
