package rpc

// engine_test.go covers the round engine's contract across its two element
// types: argument validation at the top of every round, and per-element
// storage that keeps a float64 and a GF dataset of the same phase apart.

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/sched"
)

// exactAndFloatDatasets encodes one random float64 and one random GF
// matrix of the same shape under an (n,k) code.
func exactAndFloatDatasets(t *testing.T, rng *rand.Rand, n, k, rows, cols int) (*mat.Dense, *coding.EncodedMatrix, []gf.Elem, *coding.GFEncodedMatrix) {
	t.Helper()
	code, err := coding.NewMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	a := mat.Rand(rows, cols, rng)
	gfCode, err := coding.NewGFMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	data := randElems(rng, rows*cols)
	gfEnc, err := gfCode.Encode(rows, cols, data)
	if err != nil {
		t.Fatal(err)
	}
	return a, code.Encode(a), data, gfEnc
}

// evenPlan is an S2C2 plan over n equally fast workers.
func evenPlan(t *testing.T, n, k, blockRows int) *sched.Plan {
	t.Helper()
	plan, err := (&sched.GeneralS2C2{N: n, K: k, BlockRows: blockRows}).Plan(flatSpeeds(n))
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// checkGFDecode requires a GF round's partials to decode bit-exactly to
// the local product.
func checkGFDecode(t *testing.T, enc *coding.GFEncodedMatrix, partials []*coding.GFPartial, rows, cols int, data, x []gf.Elem) {
	t.Helper()
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	for r, v := range gfGroundTruth(rows, cols, data, x) {
		if got[r] != v {
			t.Fatalf("GF row %d decodes to %d, local compute says %d", r, got[r], v)
		}
	}
}

// TestRoundRejectsInvalidThreshold: a decode threshold outside [1, n] can
// never be met — k = 0 divided the grace window by zero, k < 0 planned no
// reassignment and waited out the stall timeout, k > n could not gather
// enough responders. Both element types reject it before anything is
// sent, promptly, and the master runs valid rounds afterwards.
func TestRoundRejectsInvalidThreshold(t *testing.T) {
	const n, k, rows, cols = 3, 2, 24, 5
	m := startTestCluster(t, n, clusterConfig{})
	rng := rand.New(rand.NewSource(281))
	a, enc, data, gfEnc := exactAndFloatDatasets(t, rng, n, k, rows, cols)
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
	}
	if err := Distribute(context.Background(), m.DefaultJob(), 0, gfEnc.Parts); err != nil {
		t.Fatal(err)
	}
	plan, gfPlan := evenPlan(t, n, k, enc.BlockRows), evenPlan(t, n, k, gfEnc.BlockRows)
	x := make([]float64, cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	gx := randElems(rng, cols)

	for _, bad := range []int{-1, 0, n + 1} {
		for _, exact := range []bool{false, true} {
			start := time.Now()
			var err error
			if exact {
				_, _, err = Run(context.Background(), m.DefaultJob(), RoundSpec[gf.Elem]{X: gx, Plan: gfPlan, K: bad, TimeoutFrac: 1})
			} else {
				_, _, err = Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{X: x, Plan: plan, K: bad, TimeoutFrac: 1})
			}
			if err == nil || !strings.Contains(err.Error(), "threshold") {
				t.Fatalf("k=%d exact=%v: round returned %v, want a threshold error", bad, exact, err)
			}
			if d := time.Since(start); d > time.Second {
				t.Fatalf("k=%d exact=%v: rejection took %v", bad, exact, d)
			}
		}
	}

	partials, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{Iter: 1, X: x, Plan: plan, K: k, TimeoutFrac: 10})
	if err != nil {
		t.Fatal(err)
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecApproxEqual(got, mat.MatVec(a, x), 1e-9) {
		t.Fatal("float64 round after the rejections decodes wrong")
	}
	gfPartials, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[gf.Elem]{Iter: 1, X: gx, Plan: gfPlan, K: k, TimeoutFrac: 10})
	if err != nil {
		t.Fatal(err)
	}
	checkGFDecode(t, gfEnc, gfPartials, rows, cols, data, gx)
}

// TestElementTypesIsolatedPerPhase: a float64 and a GF dataset distributed
// under the same user phase of one job coexist — on the job and on every
// worker — and each round computes over its own. A GF round on a phase
// that only holds float64 data fails fast instead of hanging, and
// Job.Close frees both element types everywhere.
func TestElementTypesIsolatedPerPhase(t *testing.T) {
	const n, k, rows, cols = 3, 2, 30, 6
	m, workers, _ := startReleasableCluster(t, n)
	rng := rand.New(rand.NewSource(282))
	a, enc, data, gfEnc := exactAndFloatDatasets(t, rng, n, k, rows, cols)
	j := m.OpenJob(JobConfig{})
	if err := Distribute(context.Background(), j, 0, enc.Parts); err != nil {
		t.Fatal(err)
	}
	if err := Distribute(context.Background(), j, 0, gfEnc.Parts); err != nil {
		t.Fatal(err)
	}
	if err := Distribute(context.Background(), j, 1, enc.Parts); err != nil { // float64 only
		t.Fatal(err)
	}

	x := make([]float64, cols)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	partials, _, err := Run(context.Background(), j, RoundSpec[float64]{X: x, Plan: evenPlan(t, n, k, enc.BlockRows), K: k, TimeoutFrac: 10})
	if err != nil {
		t.Fatal(err)
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecApproxEqual(got, mat.MatVec(a, x), 1e-9) {
		t.Fatal("float64 round on the shared phase decodes wrong")
	}
	gx := randElems(rng, cols)
	gfPlan := evenPlan(t, n, k, gfEnc.BlockRows)
	gfPartials, _, err := Run(context.Background(), j, RoundSpec[gf.Elem]{X: gx, Plan: gfPlan, K: k, TimeoutFrac: 10})
	if err != nil {
		t.Fatal(err)
	}
	checkGFDecode(t, gfEnc, gfPartials, rows, cols, data, gx)

	start := time.Now()
	if _, _, err := Run(context.Background(), j, RoundSpec[gf.Elem]{Iter: 1, Phase: 1, X: gx, Plan: gfPlan, K: k, TimeoutFrac: 10}); err == nil ||
		!strings.Contains(err.Error(), "no distributed GF partitions") {
		t.Fatalf("GF round on a float64-only phase: %v, want the undistributed-phase error", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("GF round on a float64-only phase took %v to fail", d)
	}

	held := func(w *Worker) (float64Parts, gfParts int) {
		w.mu.Lock()
		defer w.mu.Unlock()
		return len(w.float.partitions), len(w.exact.partitions)
	}
	for _, w := range workers {
		waitUntil(t, 5*time.Second, "the worker to publish all three partitions", func() bool {
			f, g := held(w)
			return f == 2 && g == 1
		})
	}
	wps := []int{j.wirePhase(0), j.wirePhase(1)}
	j.Close()
	for _, w := range workers {
		waitUntil(t, 5*time.Second, "the worker to drop both element types", func() bool {
			f, g := held(w)
			return f == 0 && g == 0
		})
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, wp := range wps {
		if m.parts[wp] != nil || m.gfParts[wp] != nil {
			t.Fatalf("master still retains wire phase %d after Close", wp)
		}
	}
}
