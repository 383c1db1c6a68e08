//go:build linux && releasefault

package kernel

import (
	"runtime"
	"runtime/debug"
	"testing"
)

var faultSink float64

// TestReleasedMappingFaults: under the releasefault tag a view of
// released storage faults on its first read instead of reading stale or
// foreign rows.
func TestReleasedMappingFaults(t *testing.T) {
	page := hugePageSize()
	if page == 0 {
		t.Skip("no transparent huge page size in sysfs: Map maps nothing")
	}
	m := Map[float64](int(page / 8))
	view := m.Data()
	view[len(view)-1] = 1
	m.Release()
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		r := recover()
		if _, ok := r.(runtime.Error); !ok {
			t.Fatalf("a read of released storage recovered %v, want a fault", r)
		}
	}()
	faultSink = view[len(view)-1]
}
