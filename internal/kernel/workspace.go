package kernel

import (
	"math/bits"
	"sync"
)

// Workspace buffers: sync.Pool-backed float64 scratch recycled across
// rounds. Two idioms are supported:
//
//   - Buf: borrow/return for code without a natural owner (e.g. concurrent
//     RPC result buffers). GetBuf/Put are allocation-free in steady state.
//   - Grow: grow-once slices owned by a long-lived struct (decode
//     workspaces, cluster scratch), which is the preferred pattern on
//     paths that must be provably zero-alloc.

// Buf is a pooled float64 buffer. F has the requested length; capacity may
// be larger. Contents are arbitrary on Get.
type Buf struct {
	F []float64
}

// bufClasses pools buffers in power-of-two capacity classes 2^minClass ..
// 2^maxClass elements. Larger requests fall through to plain allocation.
const (
	minClass = 6  // 64 elements (512 B)
	maxClass = 24 // 16 Mi elements (128 MiB)
)

var bufClasses [maxClass - minClass + 1]sync.Pool

func classFor(n int) int {
	if n <= 1<<minClass {
		return 0
	}
	c := bits.Len(uint(n-1)) - minClass
	if c > maxClass-minClass {
		return -1
	}
	return c
}

// GetBuf returns a pooled buffer with b.F of length n. Contents are
// arbitrary.
//
//s2c2:noalloc
func GetBuf(n int) *Buf {
	c := classFor(n)
	if c < 0 {
		// Oversized request: no pool class fits, so this path allocates.
		//s2c2:waive noalloc
		return &Buf{F: make([]float64, n)}
	}
	if v := bufClasses[c].Get(); v != nil {
		b := v.(*Buf)
		b.F = b.F[:n]
		return b
	}
	// Pool miss: first use of this size class mints the buffer it will
	// recycle forever after.
	//s2c2:waive noalloc
	return &Buf{F: make([]float64, n, 1<<(minClass+c))}
}

// Put returns the buffer to its size-class pool. The caller must not use
// b.F afterwards.
//
//s2c2:recycler
func (b *Buf) Put() {
	c := classFor(cap(b.F))
	if c < 0 {
		return // oversize: let the GC have it
	}
	// Only pool buffers whose capacity is exactly a class size, so a
	// pooled buffer can always serve any request in its class.
	if cap(b.F) != 1<<(minClass+c) {
		return
	}
	b.F = b.F[:0]
	bufClasses[c].Put(b)
}

// GrowSlice returns s resized to length n, reallocating only when
// capacity is insufficient — the one grow-don't-copy helper behind every
// typed scratch slice in the stack. Contents of new space are
// unspecified; on reallocation old contents are NOT carried over.
//
//s2c2:noalloc
func GrowSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		// Capacity growth is the one sanctioned allocation: callers reuse
		// the returned slice, so steady-state rounds never reach it.
		//s2c2:waive noalloc
		return make([]T, n)
	}
	return s[:n]
}

// Grow returns s resized to length n, reallocating only when capacity is
// insufficient. New space is NOT zeroed; see GrowZeroed.
//
//s2c2:noalloc
func Grow(s []float64, n int) []float64 { return GrowSlice(s, n) }

// GrowZeroed returns s resized to length n with every element zeroed.
//
//s2c2:noalloc
func GrowZeroed(s []float64, n int) []float64 {
	s = Grow(s, n)
	Zero(s)
	return s
}

// GrowInts is Grow for int scratch (coverage counters, offsets).
//
//s2c2:noalloc
func GrowInts(s []int, n int) []int { return GrowSlice(s, n) }
