package kernel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent band-parallel executor: a fixed set of goroutines
// that run row bands of a func(lo, hi int) job (For, ForMax). It replaces
// the spawn-goroutines-per-call pattern — a steady-state dispatch performs
// no allocation and no goroutine creation when the caller builds its
// closure once.
//
// Work is distributed by atomic chunk-stealing: each participant grabs the
// next chunk of rows until the range is exhausted, so uneven per-row cost
// (e.g. sparse bands) self-balances. The dispatching goroutine always
// participates, which also makes every operation safe to call when the
// pool is saturated or sized to a single CPU.
type Pool struct {
	workers int
	tasks   chan *job
	jobs    sync.Pool
}

type job struct {
	fn    func(lo, hi int) // closure allocation is the caller's
	total int              // row count being split
	chunk int
	next  atomic.Int64
	// pending counts fanned-out channel copies not yet completed; whoever
	// decrements it to zero signals done (buffered, never closed, drained
	// on reuse) so the dispatcher can park instead of spinning.
	pending atomic.Int64
	done    chan struct{}
}

// finish records one completed channel copy of j, waking its dispatcher
// when this was the last one.
//
//s2c2:noalloc
func (j *job) finish() {
	if j.pending.Add(-1) == 0 {
		select {
		case j.done <- struct{}{}:
		default: // dispatcher already observed completion
		}
	}
}

// NewPool returns a pool with the given number of worker goroutines.
// workers <= 0 selects GOMAXPROCS.
//
//s2c2:noalloc-waive
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: workers, tasks: make(chan *job, workers)}
	p.jobs.New = func() any { return &job{done: make(chan struct{}, 1)} }
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// Close stops the pool's worker goroutines. Operations already dispatched
// complete; dispatching on a closed pool panics. The shared Default pool
// must not be closed.
func (p *Pool) Close() {
	close(p.tasks)
}

var (
	defaultOnce sync.Once
	defaultPool *Pool
)

// Default returns the process-wide shared pool, created on first use with
// GOMAXPROCS workers.
//
//s2c2:noalloc-waive
func Default() *Pool {
	defaultOnce.Do(func() { defaultPool = NewPool(0) })
	return defaultPool
}

// Workers reports the pool size.
func (p *Pool) Workers() int { return p.workers }

func (p *Pool) worker() {
	for j := range p.tasks {
		j.run()
		j.finish()
	}
}

// run steals chunks until the row range is exhausted.
//
//s2c2:noalloc
func (j *job) run() {
	for {
		lo := int(j.next.Add(int64(j.chunk))) - j.chunk
		if lo >= j.total {
			return
		}
		hi := lo + j.chunk
		if hi > j.total {
			hi = j.total
		}
		j.fn(lo, hi)
	}
}

// dispatch fans the job out to at most fan-1 pool workers (the caller is
// the remaining participant), runs the caller's share, waits for
// completion, and recycles the job.
//
// Fan-out sends are non-blocking (a saturated pool just means the caller
// does more of the work), and the completion wait is *help-first*: while
// fanned copies are outstanding the caller either executes other queued
// jobs or parks on its job's done signal — it never spins and it never
// blocks without draining the queue. Without the helping, nested dispatch
// deadlocks: every worker can be parked waiting on an inner job that only
// another parked worker could pop.
func (p *Pool) dispatch(j *job, fan int) {
	if chunks := (j.total + j.chunk - 1) / j.chunk; fan > chunks {
		fan = chunks
	}
	sent := int64(0)
	for i := 0; i < fan-1; i++ {
		select {
		case p.tasks <- j:
			sent++
		default:
			i = fan // saturated: stop fanning out
		}
	}
	j.pending.Add(sent + 1) // +1: the caller's own share below
	j.run()
	j.finish()
	for j.pending.Load() != 0 {
		select {
		case other := <-p.tasks:
			other.run()
			other.finish()
		case <-j.done:
		}
	}
	// Drop the closure before pooling (the struct embeds atomics and must
	// not be copied, so fields reset individually).
	j.fn = nil
	p.jobs.Put(j)
}

// clampFan normalizes a caller's fan-out cap to [1, workers].
func (p *Pool) clampFan(maxFan int) int {
	if maxFan <= 0 || maxFan > p.workers {
		return p.workers
	}
	return maxFan
}

func (p *Pool) newJob() *job {
	j := p.jobs.Get().(*job)
	j.next.Store(0)
	select {
	case <-j.done: // drop a stale completion token from the previous use
	default:
	}
	return j
}

// For runs fn over [0, total) in parallel chunks of at least minChunk rows.
// Building fn may allocate; a hot path builds its closure once and reuses
// it, so that each dispatch allocates nothing.
//
//s2c2:noalloc
func (p *Pool) For(total, minChunk int, fn func(lo, hi int)) {
	p.ForMax(total, minChunk, 0, fn)
}

// ForMax is For with the fan-out capped at maxFan participants (<= 0 uses
// every pool worker). A fan of one runs fn(0, total) on the caller.
//
//s2c2:noalloc
func (p *Pool) ForMax(total, minChunk, maxFan int, fn func(lo, hi int)) {
	if total <= 0 {
		return
	}
	if minChunk < 1 {
		minChunk = 1
	}
	fan := p.clampFan(maxFan)
	if fan == 1 || total <= minChunk {
		fn(0, total)
		return
	}
	j := p.newJob()
	j.fn = fn
	j.total = total
	j.chunk = minChunk
	if balanced := total / (4 * fan); balanced > minChunk {
		j.chunk = balanced
	}
	p.dispatch(j, fan)
}
