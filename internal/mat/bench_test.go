package mat

import (
	"runtime/debug"
	"testing"
)

var firstTouchSink *Dense

// BenchmarkAllocFirstTouch is a worker landing a streamed partition: a
// 64 MiB New, then one write per element. The heap is handed back to the
// OS before every iteration, so each one pays the first-touch page faults
// that a partition's set-up pays.
func BenchmarkAllocFirstTouch(b *testing.B) {
	const rows, cols = 8192, 1024
	b.SetBytes(rows * cols * 8)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		firstTouchSink = nil
		debug.FreeOSMemory()
		b.StartTimer()
		m := New(rows, cols)
		d := m.Data()
		for j := range d {
			d[j] = 1
		}
		firstTouchSink = m
	}
}
