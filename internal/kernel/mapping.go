package kernel

import (
	"runtime"
	"sync/atomic"
	"unsafe"
)

// Mapping is zeroed coded-partition storage that its owners free. On
// Linux, from one transparent huge page up, it is an anonymous mapping
// whose whole huge pages are advised MADV_HUGEPAGE: the kernel hands out
// zero pages, so nothing clears it twice, and the advice dies with the
// mapping. Smaller storage, and every build off Linux, is a make. The
// last Release unmaps it, so whoever reads Data holds a reference or keeps
// alive the header that Own tied it to. Elements are pointer-free: no GC
// scans a mapping.
type Mapping[T ~float64 | ~uint32] struct {
	data []T
	mem  []byte // the mapping under data; nil for heap storage
	refs atomic.Int32
}

// mappedBytes counts the bytes mapped by Map and not yet released.
var mappedBytes atomic.Int64

// MappedBytes returns the bytes of live mapped partition storage.
func MappedBytes() int64 { return mappedBytes.Load() }

// Map returns n zeroed elements of storage holding one reference. It may
// make syscalls: call it in constructors, not on a steady-state path.
func Map[T ~float64 | ~uint32](n int) *Mapping[T] {
	m := &Mapping[T]{}
	m.refs.Store(1)
	var zero T
	if m.mem = mapHuge(uintptr(n) * unsafe.Sizeof(zero)); m.mem != nil {
		m.data = unsafe.Slice((*T)(unsafe.Pointer(unsafe.SliceData(m.mem))), n)
	} else {
		m.data = make([]T, n)
	}
	return m
}

// Data returns the storage.
func (m *Mapping[T]) Data() []T { return m.data }

// Retain adds a reference; the caller must already hold one.
func (m *Mapping[T]) Retain() { m.refs.Add(1) }

// Release drops a reference; the last one frees mapped storage.
func (m *Mapping[T]) Release() {
	if n := m.refs.Add(-1); n < 0 {
		panic("kernel: Mapping released more often than retained")
	} else if n == 0 && m.mem != nil {
		mappedBytes.Add(-int64(len(m.mem)))
		if err := unmap(m.mem); err != nil {
			panic("kernel: releasing a live mapping: " + err.Error())
		}
	}
}

// Own returns the header wrap builds over Map(n)'s storage, which is
// released once the header is unreachable: for owners with no release
// point. A view of the storage must keep the header alive.
func Own[H any, T ~float64 | ~uint32](n int, wrap func([]T) *H) *H {
	m := Map[T](n)
	h := wrap(m.Data())
	if m.mem != nil {
		runtime.AddCleanup(h, (*Mapping[T]).Release, m)
	}
	return h
}
