package kernel

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync/atomic"
)

// A backendImpl bundles one implementation of every dispatched micro-kernel.
// The generic (portable Go) backend is the reference; vector backends must
// agree with it exactly for GF(2³¹−1) arithmetic and within accumulated
// rounding tolerance for float64 (each backend is individually
// deterministic: a fixed accumulation order, bit-identical run to run).
//
// s2c2-vet (backendpair) enforces the pairing mechanically: every literal
// of this struct must assign every kernel field in keyed form, every
// assembly stub must be reachable from some field, each field needs a
// cross-backend equivalence test, and -tags noasm must not change the
// package's exported API.
//
//s2c2:backend-contract
type backendImpl struct {
	name string

	dot  func(x, y []float64) float64
	axpy func(a float64, x, y []float64) // caller has rejected a == 0

	// matVecRange computes dst[i-lo] = (A·x)[i] for i in [lo, hi).
	matVecRange func(dst, a []float64, cols int, x []float64, lo, hi int)

	// matVecRangeBatch computes dst[(i-lo)*w+l] = (A·x_l)[i] for i in
	// [lo, hi), l in [0, w): one sweep of A serving w x-vectors. xs holds
	// the vectors concatenated (x_l at xs[l*cols : (l+1)*cols]); dst is
	// row-major w-wide.
	matVecRangeBatch func(dst, a []float64, cols int, xs []float64, w, lo, hi int)

	// matMulAccRange accumulates rows [lo, hi) of A·B into dst.
	matMulAccRange func(dst, a []float64, k int, b []float64, n, lo, hi int)

	// gfAxpy computes dst[i] ← dst[i] + c·src[i] mod 2³¹−1 (exact; inputs
	// fully reduced, c != 0, lengths equal).
	gfAxpy func(dst []uint32, c uint32, src []uint32)

	// gfMatVec computes dst[i-lo] = (A·x)[i] over GF(2³¹−1) for i in
	// [lo, hi), the dot-lane kernel behind gf.Matrix.MulVecRangeInto.
	// Exact on every backend.
	gfMatVec func(dst, a []uint32, cols int, x []uint32, lo, hi int)

	// gfMatVecBatch is gfMatVec over w concatenated x-vectors with
	// row-major w-wide output, mirroring matVecRangeBatch.
	gfMatVecBatch func(dst, a []uint32, cols int, xs []uint32, w, lo, hi int)

	// chunkFlops is the per-chunk flop target the pool sizes row chunks
	// for: wider backends retire flops faster, so they want bigger chunks.
	chunkFlops int
}

// BackendEnv is the environment variable consulted once at init to force a
// kernel backend (e.g. S2C2_KERNEL_BACKEND=generic). Unknown names are
// ignored and the best available backend stays selected; ActiveBackend
// reports what actually runs.
const BackendEnv = "S2C2_KERNEL_BACKEND"

// allBackends lists every backend compiled into this binary and usable on
// this CPU, generic first. archBackends is supplied per GOARCH (and is
// empty under the noasm build tag).
var allBackends = append([]*backendImpl{genericBackend}, archBackends()...)

// active is the backend every dispatched kernel routes through. It is set
// during package init and only changes via SetBackend.
var active atomic.Pointer[backendImpl]

func init() {
	b := allBackends[len(allBackends)-1] // best available: vector if present
	if env := os.Getenv(BackendEnv); env != "" {
		for _, cand := range allBackends {
			if strings.EqualFold(cand.name, env) {
				b = cand
			}
		}
	}
	active.Store(b)
}

// ActiveBackend reports the name of the backend the dispatched kernels are
// currently routed through ("generic", "avx2", ...). It is the hook CI and
// the bench harness use to assert which path ran.
func ActiveBackend() string { return active.Load().name }

// Backends lists the names of every backend available in this process,
// sorted, generic always included. Vector backends appear only when the
// binary was built with them (no noasm tag) and the CPU supports them.
func Backends() []string {
	names := make([]string, len(allBackends))
	for i, b := range allBackends {
		names[i] = b.name
	}
	sort.Strings(names)
	return names
}

// ChunkRows sizes a parallel-loop row chunk for the active backend: the
// row count whose total cost (rowFlops flops per row) meets the backend's
// per-chunk flop target. Vector backends retire flops faster, so they get
// bigger chunks; callers banding kernel loops over a pool should use this
// instead of a hardcoded flop budget. Always at least 1.
//
//s2c2:noalloc
func ChunkRows(rowFlops int) int {
	if rowFlops < 1 {
		rowFlops = 1
	}
	c := active.Load().chunkFlops / rowFlops
	if c < 1 {
		c = 1
	}
	return c
}

// SetBackend routes all subsequent dispatched kernel calls through the
// named backend. It is intended for tests and benchmarks comparing
// backends; the swap is atomic, but operations already in flight finish on
// the backend they started with.
func SetBackend(name string) error {
	for _, b := range allBackends {
		if strings.EqualFold(b.name, name) {
			active.Store(b)
			return nil
		}
	}
	return fmt.Errorf("kernel: unknown backend %q (available: %s)",
		name, strings.Join(Backends(), ", "))
}
