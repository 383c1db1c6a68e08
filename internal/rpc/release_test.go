package rpc

import (
	"bytes"
	"context"
	"testing"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/mat"
)

// Tests for the release of worker partition storage (kernel.Map). Under
// the releasefault build tag a released mapping faults on any access, so
// these run there too: go test -tags releasefault -race.

// TestPartitionDropMidSweep drops a partition while a handler sweeps it:
// the drop leaves the storage mapped for the handler, whose release
// unmaps it, and the sweep reads nothing released.
func TestPartitionDropMidSweep(t *testing.T) {
	const rows, cols = 2048, 1024 // 16 MiB: mapped storage
	w := streamVictim(bytes.NewReader(nil), maxRPCFrame)
	src := mat.New(rows, cols)
	x := make([]float64, cols)
	whole := []coding.Range{{Lo: 0, Hi: rows}}
	overlapped := 0
	for i := 0; i < 200 && overlapped < 5; i++ {
		base := kernel.MappedBytes()
		w.mu.Lock()
		w.float.partitions[0] = heldCopy[floatCodec](src)
		w.mu.Unlock()
		job := fromPool[Work](&w.float.works)
		job.Phase, job.W, job.X, job.Ranges = 0, 1, x, whole
		done := make(chan struct{})
		go func() {
			defer close(done)
			w.float.handle(job)
		}()
		// Staggered across the sweep's few milliseconds; the check below
		// counts the drops that found the partition held.
		time.Sleep(time.Duration(i%8) * 250 * time.Microsecond)
		w.mu.Lock()
		release(w.float.partitions, 0)
		w.mu.Unlock()
		// Other tests' encodings may be unmapped meanwhile, never mapped.
		if kernel.MappedBytes() > base {
			overlapped++ // the handler holds the dropped partition
		}
		<-done
		if left := kernel.MappedBytes() - base; left > 0 {
			t.Fatalf("drop %d: %d bytes stay mapped after the handler returned", i, left)
		}
	}
	if overlapped == 0 {
		t.Fatal("no drop landed while a handler held the partition")
	}
}

// TestDistributeCloseCyclesReleaseMappings opens a job, distributes a
// 4 MiB partition to it and closes it, 200 times: the worker's mapped
// storage ends where it began.
func TestDistributeCloseCyclesReleaseMappings(t *testing.T) {
	const rows, cols = 512, 1024
	m, _, _ := startReleasableCluster(t, 1)
	parts := []*mat.Dense{mat.New(rows, cols)}
	base := kernel.MappedBytes()
	for i := range 200 {
		j := m.OpenJob(JobConfig{})
		if err := Distribute(context.Background(), j, 0, parts); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		j.Close()
	}
	// The worker reads its connection in order: once a later transfer is
	// stored, every earlier PartitionDrop has been handled.
	if err := Distribute(context.Background(), m.DefaultJob(), 0, []*mat.Dense{mat.New(1, cols)}); err != nil {
		t.Fatal(err)
	}
	if left := kernel.MappedBytes() - base; left > 0 {
		t.Fatalf("%d MB stay mapped after 200 distribute/close cycles", left>>20)
	}
}
