package kernel

import (
	"math/rand"
	"testing"
)

// Equivalence tests for the fused GF(2³¹−1) sweeps: the lane-fused batch
// tile behind GFMatVecBatchMod31 and the multi-row tile behind
// GFMatVecMod31 must return, on every backend, exactly the per-lane
// gfDotGeneric values they replaced.

// gfBatchRef is the per-lane reference: one gfDotGeneric per (row, lane).
func gfBatchRef(a []uint32, cols int, xs []uint32, w, lo, hi int) []uint32 {
	out := make([]uint32, (hi-lo)*w)
	for i := lo; i < hi; i++ {
		for l := 0; l < w; l++ {
			out[(i-lo)*w+l] = gfDotGeneric(a[i*cols:(i+1)*cols], xs[l*cols:(l+1)*cols])
		}
	}
	return out
}

// checkGFSweeps compares both dispatched sweeps on every backend, and on
// every batch-sweep route the backend can take here, against the
// reference over rows [lo, hi). Destinations carry a guard element so a
// masked store that overruns its tile is caught.
func checkGFSweeps(t *testing.T, a []uint32, cols int, xs []uint32, w, lo, hi int) {
	t.Helper()
	const guard = 0xDEADBEEF
	want := gfBatchRef(a, cols, xs, w, lo, hi)
	for _, backend := range Backends() {
		withBackend(t, backend, func() {
			forEachGFTileRoute(backend, func(route string) {
				backend := backend + route
				got := make([]uint32, (hi-lo)*w+1)
				got[len(got)-1] = guard
				GFMatVecBatchMod31(got[:len(got)-1], a, cols, xs, w, lo, hi)
				if got[len(got)-1] != guard {
					t.Fatalf("backend=%s cols=%d w=%d [%d,%d): batch sweep wrote past dst", backend, cols, w, lo, hi)
				}
				for i, v := range want {
					if got[i] != v {
						t.Fatalf("backend=%s cols=%d w=%d [%d,%d): batch row %d lane %d = %d, reference %d",
							backend, cols, w, lo, hi, lo+i/w, i%w, got[i], v)
					}
				}
				single := make([]uint32, hi-lo+1)
				for l := 0; l < w; l++ {
					single[hi-lo] = guard
					GFMatVecMod31(single[:hi-lo], a, cols, xs[l*cols:(l+1)*cols], lo, hi)
					if single[hi-lo] != guard {
						t.Fatalf("backend=%s cols=%d [%d,%d): single-x sweep wrote past dst", backend, cols, lo, hi)
					}
					for i := 0; i < hi-lo; i++ {
						if single[i] != want[i*w+l] {
							t.Fatalf("backend=%s cols=%d lane=%d [%d,%d): single-x row %d = %d, reference %d",
								backend, cols, l, lo, hi, lo+i, single[i], want[i*w+l])
						}
					}
				}
			})
		})
	}
}

func randGF(n int, rng *rand.Rand) []uint32 {
	s := make([]uint32, n)
	for i := range s {
		s[i] = rng.Uint32() % uint32(p31)
	}
	return s
}

// TestGFFusedSweepsMatchPerLaneReference walks every lane-tile split
// (w below, at and past one and two 8-lane tiles, the opmasked 7-lane
// tile, the pack-free remainders) against every column shape (each lazy
// fold phase, with and without a masked tail chunk) over arbitrary row
// bands, including bands that leave a partial multi-row group.
func TestGFFusedSweepsMatchPerLaneReference(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	const rows = 11
	for _, cols := range []int{1, 7, 8, 9, 15, 16, 24, 25, 31, 32, 255, 256, 257} {
		for _, w := range []int{1, 2, 3, 7, 8, 9, 16, 17} {
			a := randGF(rows*cols, rng)
			xs := randGF(w*cols, rng)
			checkGFSweeps(t, a, cols, xs, w, 0, rows)
			for trial := 0; trial < 3; trial++ {
				lo := rng.Intn(rows)
				hi := lo + rng.Intn(rows-lo+1)
				checkGFSweeps(t, a, cols, xs, w, lo, hi)
			}
		}
	}
}

// TestGFFusedSweepsFoldBudget drives every fold at its limit: operands
// that keep every product, or every product's low 52-bit half, at its
// maximum make an accumulator folded later than its budget allows wrap
// 64 bits and miss the reference.
func TestGFFusedSweepsFoldBudget(t *testing.T) {
	const p = uint32(p31)
	check := func(av, xv uint32, cols, w int) {
		t.Helper()
		const rows = 5
		a := make([]uint32, rows*cols)
		xs := make([]uint32, w*cols)
		for i := range a {
			a[i] = av
		}
		for i := range xs {
			xs[i] = xv
		}
		checkGFSweeps(t, a, cols, xs, w, 0, rows)
	}
	// The three-product lazy folds: every operand at p−1 (and at the
	// non-canonical p callers may hold transiently) keeps every product
	// at its maximum. Column counts cover each fold phase — in the
	// unrolled loop, the remainder blocks or the masked tail — with and
	// without a tail chunk, and a long row many fold periods deep.
	for _, v := range []uint32{p - 1, p} {
		for _, cols := range []int{8, 16, 23, 24, 25, 31, 32, 33, 40, 47, 48, 49, 71, 72, 73, 10007} {
			for _, w := range []int{1, 5, 8, 15} {
				check(v, v, cols, w)
			}
		}
	}
	// The IFMA tile's accumulators, merged once per 4 094 full column
	// blocks: rows one block either side of the merge interval, one merge
	// plus a tail, and two merge periods deep. (2²⁶−1)·(2²⁶+1) = 2⁵²−1 is
	// the largest low half a product can leave, so with those operands
	// the last row segment — 4 094 full blocks after a merge, plus the
	// masked tail — sits at the 64-bit limit, and merging every 4 095 or
	// 4 096 blocks wraps at 2·8·4 095+7 or 8·4 096+1 columns.
	const merge = 8 * 4094
	for _, op := range [][2]uint32{{p - 1, p - 1}, {p, p}, {1<<26 - 1, 1<<26 + 1}} {
		for _, cols := range []int{merge - 1, merge, merge + 1, 8*4095 + 7, 8*4096 + 1, 2*merge + 7, 2*merge + 9, 2*8*4095 + 7} {
			for _, w := range []int{6, 8, 15} {
				check(op[0], op[1], cols, w)
			}
		}
	}
}

// FuzzGFFusedSweeps fuzzes the shape (rows, cols, w) and the band
// [lo, hi) together with the operand bytes.
func FuzzGFFusedSweeps(f *testing.F) {
	f.Add(uint8(5), uint8(9), uint8(3), uint8(1), uint8(4), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(9), uint8(25), uint8(8), uint8(0), uint8(9), []byte{0xFE, 0xFF, 0xFF, 0x7F})
	f.Add(uint8(4), uint8(64), uint8(17), uint8(2), uint8(3), []byte{0xFF, 0xFF, 0xFF, 0xFF, 0})
	f.Fuzz(func(t *testing.T, rows8, cols8, w8, lo8, hi8 uint8, data []byte) {
		rows, cols, w := int(rows8%24), int(cols8%80), int(w8%20)+1
		lo, hi := int(lo8), int(hi8)
		if lo > rows {
			lo = rows
		}
		if hi > rows {
			hi = rows
		}
		if hi < lo {
			lo, hi = hi, lo
		}
		if len(data) == 0 {
			data = []byte{0}
		}
		// Stretch the fuzz bytes over both operands; byte 0xFF runs map to
		// the maximal elements p−1 and p.
		elem := func(i int) uint32 {
			var v uint32
			for b := 0; b < 4; b++ {
				v |= uint32(data[(i*4+b)%len(data)]) << (8 * b)
			}
			if v == 0xFFFFFFFF {
				return uint32(p31)
			}
			return v % uint32(p31)
		}
		a := make([]uint32, rows*cols)
		xs := make([]uint32, w*cols)
		for i := range a {
			a[i] = elem(i)
		}
		for i := range xs {
			xs[i] = elem(len(a) + i)
		}
		checkGFSweeps(t, a, cols, xs, w, lo, hi)
	})
}
