//go:build linux && releasefault

package rpc

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"testing"
	"time"

	"github.com/coded-computing/s2c2/internal/mat"
)

// viewChildEnv marks the subprocess TestRetainedViewFaultsAfterJobClose
// runs its fault in; it is read by this test alone.
const viewChildEnv = "S2C2_RELEASEFAULT_CHILD"

// viewSink keeps the stale read from being optimised away.
var viewSink float64

// TestRetainedViewFaultsAfterJobClose keeps a view of a worker's 4 MiB
// partition past the job's Close: once the worker has handled the
// PartitionDrop, reading the view faults. The read runs in a subprocess,
// which the fault kills.
func TestRetainedViewFaultsAfterJobClose(t *testing.T) {
	if os.Getenv(viewChildEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestRetainedViewFaultsAfterJobClose$", "-test.count=1")
		cmd.Env = append(os.Environ(), viewChildEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err == nil || !bytes.Contains(out, []byte("unexpected fault address")) {
			t.Fatalf("reading a released partition did not fault (%v):\n%s", err, out)
		}
		return
	}
	const rows, cols = 512, 1024
	m, workers, _ := startReleasableCluster(t, 1)
	j := m.OpenJob(JobConfig{})
	if err := Distribute(context.Background(), j, 0, []*mat.Dense{mat.New(rows, cols)}); err != nil {
		t.Fatal(err)
	}
	w, wp := workers[0], j.wirePhase(0)
	w.mu.Lock()
	view := w.float.partitions[wp].m.Data()
	w.mu.Unlock()
	viewSink = view[len(view)/2] // mapped: reads fine
	j.Close()
	awaitDropped(t, w, wp)
	viewSink = view[len(view)/2]
	t.Log("the read after release survived")
}

// awaitDropped waits until worker w holds no float64 partition for wire
// phase wp.
func awaitDropped(t *testing.T, w *Worker, wp int) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		w.mu.Lock()
		p := w.float.partitions[wp]
		w.mu.Unlock()
		if p == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the worker still holds phase %d 10 s after the job closed", wp)
		}
	}
}
