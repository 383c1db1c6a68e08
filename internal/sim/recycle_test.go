package sim

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/trace"
	"github.com/coded-computing/s2c2/internal/workloads"
)

// drainIdleEncodings empties the idle list, so the next job at any shape
// encodes into fresh storage.
func drainIdleEncodings() {
	idleEncodings.Lock()
	defer idleEncodings.Unlock()
	idleEncodings.list = nil
	idleEncodings.bytes = 0
}

// recycleJob is one RunIterative job of the recycling tests: logistic
// regression over 250×30 data (phase 0 pads its tail block at k = 6,
// phase 1 is Xᵀ), two 5× stragglers, real encode, compute and decode.
type recycleJob struct {
	data *workloads.Classification
	k    int
}

func (j recycleJob) workload() *workloads.LogisticRegression {
	return &workloads.LogisticRegression{Data: j.data, LR: 0.5, Lambda: 1e-4}
}

func (j recycleJob) config() JobConfig {
	const n = 12
	return JobConfig{N: n, K: j.k, Strategy: S2C2Factory(n, j.k, 0),
		Trace: trace.ControlledCluster(n, 2, 20, 41), Comm: DefaultComm(), Timeout: DefaultTimeout(),
		Numeric: true, MaxIter: 12, Exec: kernel.Exec{MaxFan: 1}}
}

// reference drives the job over clusters built from a plain, fresh
// Encode: what RunIterative computed before it recycled encodings.
func (j recycleJob) reference(t *testing.T) *JobResult {
	t.Helper()
	w, cfg := j.workload(), j.config()
	var phases []Cluster
	for _, m := range w.Matrices() {
		code, err := coding.NewMDSCode(cfg.N, cfg.K)
		if err != nil {
			t.Fatal(err)
		}
		enc := code.Encode(m)
		phases = append(phases, &CodedCluster{Enc: enc, Strategy: cfg.Strategy(enc.BlockRows),
			Trace: cfg.Trace, Comm: cfg.Comm, Timeout: cfg.Timeout, Numeric: true})
	}
	res, err := Drive(w, phases, cfg.MaxIter)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func (j recycleJob) run() (*JobResult, error) { return RunIterative(j.workload(), j.config()) }

// sameJobResult reports how got differs from want, bit for bit: the final
// state, the iteration count and every aggregate.
func sameJobResult(got, want *JobResult) error {
	if got.Iterations != want.Iterations {
		return fmt.Errorf("%d iterations, want %d", got.Iterations, want.Iterations)
	}
	for i := range want.State {
		if math.Float64bits(got.State[i]) != math.Float64bits(want.State[i]) {
			return fmt.Errorf("state[%d] = %v, want %v", i, got.State[i], want.State[i])
		}
	}
	if !reflect.DeepEqual(got.Aggregate, want.Aggregate) || !reflect.DeepEqual(got.PerPhase, want.PerPhase) {
		return fmt.Errorf("aggregate %+v, want %+v", got.Aggregate, want.Aggregate)
	}
	return nil
}

// TestRecycledEncodingBitExact runs one job cold, a job over different
// data of the same shape (which draws the first job's storage, so stale
// parity would show), and the first job again, warm: each must match a
// fresh-encode reference bit for bit.
func TestRecycledEncodingBitExact(t *testing.T) {
	a := recycleJob{workloads.SyntheticClassification(250, 30, 42), 6}
	b := recycleJob{workloads.SyntheticClassification(250, 30, 43), 6}
	wantA, wantB := a.reference(t), b.reference(t)
	drainIdleEncodings()
	for i, step := range []struct {
		job  recycleJob
		want *JobResult
	}{{a, wantA}, {b, wantB}, {a, wantA}} {
		got, err := step.job.run()
		if err != nil {
			t.Fatal(err)
		}
		if err := sameJobResult(got, step.want); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	idleEncodings.Lock()
	defer idleEncodings.Unlock()
	if len(idleEncodings.list) != 2 {
		t.Fatalf("%d idle encodings after three jobs at two shapes, want 2", len(idleEncodings.list))
	}
	for _, e := range idleEncodings.list {
		for j, part := range e.enc.Parts[:e.key.k] {
			if part != nil {
				t.Fatalf("idle encoding %+v keeps systematic view %d of a job's matrix", e.key, j)
			}
		}
	}
}

// TestRecycledEncodingConcurrentJobs runs jobs over shared shapes from 8
// goroutines at once: every result must equal the serial one.
func TestRecycledEncodingConcurrentJobs(t *testing.T) {
	data := workloads.SyntheticClassification(250, 30, 42)
	jobs := []recycleJob{
		{data, 6},
		{workloads.SyntheticClassification(250, 30, 43), 6},
		{data, 10},
	}
	want := make([]*JobResult, len(jobs))
	for i, j := range jobs {
		want[i] = j.reference(t)
	}
	const goroutines, rounds = 8, 3
	errs := make(chan error, goroutines*rounds)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(jobs)
				got, err := jobs[i].run()
				if err == nil {
					err = sameJobResult(got, want[i])
				}
				if err != nil {
					errs <- fmt.Errorf("goroutine %d, job %d: %w", g, i, err)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRecycledEncodingSkipsParityAllocs pins the point of recycling: a
// job at a shape an earlier job released makes none of the n−k parity
// allocations per phase that a cold job makes.
func TestRecycledEncodingSkipsParityAllocs(t *testing.T) {
	j := recycleJob{workloads.SyntheticClassification(250, 30, 42), 6}
	run := func() {
		if _, err := j.run(); err != nil {
			t.Fatal(err)
		}
	}
	cold := testing.AllocsPerRun(5, func() { drainIdleEncodings(); run() })
	warm := testing.AllocsPerRun(5, run)
	t.Logf("allocations per job: cold %v, warm %v", cold, warm)
	parity := float64(2 * (j.config().N - j.k)) // two phases
	if cold-warm < parity {
		t.Fatalf("a warm job allocates %v objects, a cold one %v: want at least the %v parity blocks fewer", warm, cold, parity)
	}
}

// TestRecycleListBounded checks the idle list's byte bound: releasing past
// it evicts the least recently released, and an encoding larger than the
// bound is never kept.
func TestRecycleListBounded(t *testing.T) {
	drainIdleEncodings()
	t.Cleanup(drainIdleEncodings)
	take := func(n, k, rows, cols int) *encoding {
		e, err := takeEncoding(n, k, mat.New(rows, cols), kernel.Exec{MaxFan: 1})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// 1 MiB of parity each at five shapes: four fit, the fifth evicts the
	// first.
	var held []*encoding
	for cols := 8; cols <= 128; cols *= 2 {
		held = append(held, take(2, 1, (1<<17)/cols, cols))
	}
	for _, e := range held {
		e.release()
	}
	idle := &idleEncodings
	if idle.bytes != maxRecycledBytes {
		t.Fatalf("idle list holds %d bytes, want the bound, %d", idle.bytes, maxRecycledBytes)
	}
	for i, e := range idle.list {
		if e.key != held[i+1].key {
			t.Fatalf("idle list %v, want every shape but the first released", idle.list)
		}
	}
	huge := take(2, 1, maxRecycledBytes/8+1, 1)
	huge.release()
	if len(idle.list) != 4 {
		t.Fatalf("an encoding past the %d-byte bound went idle", maxRecycledBytes)
	}
}

// TestTimingOnlyJobLeavesIdleListAlone checks that a timing-only job,
// which reads only its encodings' shapes, encodes nothing: it neither
// takes the idle encoding of its shape nor puts one on the list.
func TestTimingOnlyJobLeavesIdleListAlone(t *testing.T) {
	drainIdleEncodings()
	t.Cleanup(drainIdleEncodings)
	j := recycleJob{workloads.SyntheticClassification(250, 30, 43), 6}
	timingOnly := func() {
		cfg := j.config()
		cfg.Numeric = false
		if _, err := RunIterative(j.workload(), cfg); err != nil {
			t.Fatal(err)
		}
	}
	idle := &idleEncodings
	timingOnly()
	if len(idle.list) != 0 || idle.bytes != 0 {
		t.Fatalf("a timing-only job left %d encodings (%d bytes) idle, want none", len(idle.list), idle.bytes)
	}
	// A Numeric job leaves its two encodings idle; zeroing their parity
	// shows whether anything re-encoded into them.
	if _, err := j.run(); err != nil {
		t.Fatal(err)
	}
	for _, e := range idle.list {
		for _, part := range e.enc.Parts[j.k:] {
			clear(part.Data())
		}
	}
	before := slices.Clone(idle.list)
	timingOnly()
	if !reflect.DeepEqual(idle.list, before) {
		t.Fatalf("a timing-only job changed the idle list from %v to %v", before, idle.list)
	}
	for _, e := range idle.list {
		for _, part := range e.enc.Parts[j.k:] {
			if slices.ContainsFunc(part.Data(), func(v float64) bool { return v != 0 }) {
				t.Fatal("a timing-only job encoded into an idle encoding")
			}
		}
	}
}
