package main

import (
	"bytes"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/rpc"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/wire"
)

// Replays run single layers at the workload's shape, single-threaded, in
// traced runs only and outside the measured window. They tell what a
// layer costs on its own; the round spans tell what it costs in place.

// replayBudget bounds one replay loop: at least replayMin repetitions,
// then as many as fit the time.
const (
	replayMin    = 10
	replayMax    = 400
	replayBudget = 250 * time.Millisecond
)

// replay runs fn under a span of the given name until the budget is used
// and returns the median duration in ms.
func replay(tr *tracer, name string, fn func()) float64 {
	first := len(tr.spans)
	start := time.Now()
	for i := 0; i < replayMax && (i < replayMin || time.Since(start) < replayBudget); i++ {
		sp := tr.begin(name, -1, 0)
		fn()
		tr.end(sp)
	}
	var ms []float64
	for _, s := range tr.spans[first:] {
		ms = append(ms, float64(s.End-s.Start)/1e6)
	}
	return median(ms)
}

// replaySweep times one worker's kernel sweep over its assigned ranges
// and returns the median ms of the sweep and per row.
func replaySweep(tr *tracer, name string, ranges []coding.Range, sweep func(lo, hi int)) (sweepMs, rowMs float64) {
	sweepMs = replay(tr, name, func() {
		for _, r := range ranges {
			sweep(r.Lo, r.Hi)
		}
	})
	return sweepMs, sweepMs / float64(coding.TotalRows(ranges))
}

// slowestWorkerMs is the longest worker time the plan implies when the
// kernel runs alone on a core: rows × (replayed compute + emulated
// per-row delay) × slowdown, the worker's own formula.
func slowestWorkerMs(plan *sched.Plan, rowMs float64, workers []rpc.WorkerConfig) float64 {
	worst := 0.0
	for w, cfg := range workers {
		slow := cfg.Slowdown
		if slow <= 0 {
			slow = 1
		}
		ms := float64(plan.RowsFor(w)) * slow * (rowMs + float64(cfg.PerRowDelay)/1e6)
		if ms > worst {
			worst = ms
		}
	}
	return worst
}

// elemIO is the wire codec of one element type.
type elemIO[T any] struct {
	size int
	put  func(*wire.Writer, []T)
	get  func(*wire.Payload, []T) []T
	into func(*wire.Payload, []T) error
}

var (
	float64IO = elemIO[float64]{8, (*wire.Writer).Float64s, (*wire.Payload).Float64s, (*wire.Payload).Float64sInto}
	uint32IO  = elemIO[uint32]{4, (*wire.Writer).Uint32s, (*wire.Payload).Uint32s, (*wire.Payload).Uint32sInto}
)

// chunkBytes is the runtime's default partition-chunk size.
const chunkBytes = 256 << 10

// replayWire frames the round's Work and Result messages for every
// planned worker through wire.Writer → buffer → wire.Reader with the
// workload's payload sizes, and a partition chunk the same way. The field
// order follows rpc's job-tagged frames; only public wire calls are used.
func replayWire[T any](tr *tracer, v map[string]float64, io elemIO[T], plan *sched.Plan, x []T, width int) {
	var buf bytes.Buffer
	wr, rd := wire.NewWriter(&buf), wire.NewReader(&buf)
	values := make([]T, plan.BlockRows*width)
	scratch := make([]T, 0, max(len(x), len(values)))
	frame := func(t wire.Type, ranges []coding.Range, payload []T) {
		wr.Begin(t)
		for i := 0; i < 4; i++ { // job, iter, phase, width
			wr.Int(i)
		}
		wr.Int(len(ranges))
		for _, r := range ranges {
			wr.Int(r.Lo)
			wr.Int(r.Hi)
		}
		io.put(wr, payload)
		_ = wr.End() // a bytes.Buffer write cannot fail
	}
	unframe := func() {
		_, p, err := rd.Next()
		if err != nil {
			return
		}
		for i := 0; i < 4; i++ {
			p.Int()
		}
		for n := 2 * p.Int(); n > 0; n-- {
			p.Int()
		}
		io.get(p, scratch)
	}

	bytesPerRound := 0
	for w, ranges := range plan.Assignments {
		if len(ranges) == 0 {
			continue
		}
		result := values[:plan.RowsFor(w)*width]
		frame(wire.TypeJobWork, ranges, x)
		bytesPerRound += buf.Len()
		unframe()
		frame(wire.TypeJobResult, ranges, result)
		bytesPerRound += buf.Len()
		unframe()
	}
	v["wire.bytes_per_round"] = float64(bytesPerRound)

	ranges := plan.Assignments[0]
	result := values[:plan.RowsFor(0)*width]
	v["wire.work_frame_us"] = 1e3 * replay(tr, "wire.work_frame", func() {
		frame(wire.TypeJobWork, ranges, x)
		unframe()
	})
	v["wire.result_frame_us"] = 1e3 * replay(tr, "wire.result_frame", func() {
		frame(wire.TypeJobResult, ranges, result)
		unframe()
	})

	chunk := make([]T, chunkBytes/io.size)
	chunkMs := replay(tr, "wire.chunk", func() {
		wr.Begin(wire.TypePartitionChunk)
		for i := 0; i < 4; i++ { // phase, seq, lo, hi
			wr.Int(i)
		}
		io.put(wr, chunk)
		_ = wr.End()
		if _, p, err := rd.Next(); err == nil {
			for i := 0; i < 4; i++ {
				p.Int()
			}
			_ = io.into(p, chunk)
		}
	})
	if chunkMs > 0 {
		v["wire.chunk_stream_mb_per_s"] = chunkBytes / 1e6 / (chunkMs / 1e3)
	}
}
