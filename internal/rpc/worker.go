package rpc

import (
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/wire"
)

// WorkerConfig configures a worker daemon.
type WorkerConfig struct {
	// MasterAddr is the master's host:port.
	MasterAddr string
	// Slowdown artificially multiplies compute time (1 = full speed);
	// values > 1 make this worker a reproducible partial straggler.
	Slowdown float64
	// PerRowDelay adds a fixed virtual cost per computed row so straggler
	// effects are visible even on tiny test matrices. Zero is fine for
	// real workloads.
	PerRowDelay time.Duration
	// Exec pins this worker's kernel execution to a pool and fan-out. The
	// zero value uses the shared default pool with full fan-out (serial
	// on a single-core host); co-tenant workers in one process should cap
	// MaxFan or bring their own pool.
	Exec kernel.Exec
	// WriteTimeout is the base per-send write deadline (scaled up with
	// payload size), mirroring MasterConfig.StallTimeout on the master
	// side; raise it together with the master's on slow links. Zero
	// selects 30 seconds.
	WriteTimeout time.Duration

	// maxResultRows bounds one Result message's row count so result
	// frames stay well under the receiver's frame limit no matter how
	// large the partition is; larger results are split into several
	// messages, which the master's gather accepts natively. Zero selects
	// 4 Mi rows (≈ 32 MiB of values); tests set it low to force the
	// split on small fixtures.
	maxResultRows int
}

// partBuild is a streamed partition, from its start header on: the
// matrix over storage of which the lane holds one reference and each
// handler sweeping it another.
type partBuild[T coding.Element] struct {
	m         Partition[T]
	mem       *kernel.Mapping[T]
	seq       int // transfer sequence, echoed in every chunk ack
	remaining int // rows not yet received
}

// maxPartitionElems bounds the matrix a partition header may ask the
// worker to allocate (16 GiB of float64), rejecting corrupt or hostile
// headers before any allocation. Typed int64 so the constant (and the
// bounds arithmetic below) stays valid on 32-bit platforms, and clamped
// at init so Rows·Cols — and its byte count — always fits the platform
// int (on 386, 2³¹ elements exactly would pass an int64-only check and
// then overflow mat.New's int multiplication).
var maxPartitionElems = func() int64 {
	const want = int64(1) << 31
	if host := int64(math.MaxInt / 8); host < want {
		return host
	}
	return want
}()

// validPartitionDims is the shape guard every partition start header
// must pass: non-negative rows, positive cols, and a Rows·Cols product
// bounded by division so a hostile header cannot overflow the check into
// passing.
func validPartitionDims(rows, cols int) bool {
	return rows >= 0 && cols > 0 && int64(rows) <= maxPartitionElems/int64(cols)
}

// Worker is the daemon side of the runtime: it stores coded partitions
// and executes assigned row ranges on demand.
type Worker struct {
	cfg WorkerConfig
	c   *wireConn

	mu sync.Mutex // guards both lanes' partition maps
	// float and exact hold the float64 and the GF(2³¹−1) datasets; one of
	// each may live under the same phase.
	float workerLane[floatCodec, float64]
	exact workerLane[gfCodec, gf.Elem]
}

// workerLane is one element type's share of a worker: its published
// partitions, the transfer in progress, and the pooled slots its
// concurrent handlers borrow.
type workerLane[C codec[T], T coding.Element] struct {
	w          *Worker
	partitions map[int]*partBuild[T] // phase → coded partition
	pending    map[int]*partBuild[T] // phase → partition mid-stream
	works      sync.Pool             // *WorkOf[T] slots for concurrent handlers
	results    sync.Pool             // *ResultOf[T] send slots
}

func (l *workerLane[C, T]) init(w *Worker) {
	l.w = w
	l.partitions = map[int]*partBuild[T]{}
	l.pending = map[int]*partBuild[T]{}
}

// newWorker wraps a connection whose handshake is done; cfg carries its
// defaults already.
func newWorker(cfg WorkerConfig, c *wireConn) *Worker {
	w := &Worker{cfg: cfg, c: c}
	w.float.init(w)
	w.exact.init(w)
	return w
}

// NewWorker dials the master, performs the wire handshake, and sends the
// hello.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Slowdown <= 0 {
		cfg.Slowdown = 1
	}
	if cfg.maxResultRows <= 0 {
		cfg.maxResultRows = 4 << 20
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = defaultStallTimeout
	}
	nc, err := net.Dial("tcp", cfg.MasterAddr)
	if err != nil {
		return nil, fmt.Errorf("rpc: dial master: %w", err)
	}
	if err := wire.WriteHandshake(nc, wire.VersionWire); err != nil {
		nc.Close()
		return nil, err
	}
	t := newWireConn(nc, cfg.WriteTimeout)
	if err := t.sendHello(&Hello{Slowdown: cfg.Slowdown}); err != nil {
		t.close()
		return nil, err
	}
	return newWorker(cfg, t), nil
}

// Close tears down the worker's connection immediately: a blocked Run
// returns with the connection error. It is how a driver retires a worker
// in place of a process kill — chaos tests and the failover example use
// it to simulate a worker dying mid-job. Close is idempotent.
func (w *Worker) Close() error { return w.c.close() }

// Run processes messages until shutdown or connection loss. Work requests
// are served concurrently so a reassignment can overtake a slow round.
// When it returns the worker has released every partition it held (a
// handler still sweeping one unmaps it when done): the Worker value can
// stay reachable past its connection (its sync.Pools keep it registered
// with the runtime for a further GC cycle), and the dataset must not ride
// along.
func (w *Worker) Run() error {
	defer func() {
		w.mu.Lock()
		releaseAll(w.float.partitions)
		releaseAll(w.float.pending)
		releaseAll(w.exact.partitions)
		releaseAll(w.exact.pending)
		w.mu.Unlock()
	}()
	return w.serve()
}

// serve is Run's receive loop.
func (w *Worker) serve() error {
	defer w.c.close()
	msg := &Msg{}
	for {
		if err := w.c.recv(msg); err != nil {
			return err
		}
		var err error
		switch msg.Kind {
		case KindPartitionStart:
			err = w.float.start(&msg.PartStart)
		case KindGFPartitionStart:
			err = w.exact.start(&msg.PartStart)
		case KindPartitionChunk:
			err = w.float.store(msg)
		case KindGFPartitionChunk:
			err = w.exact.store(msg)
		case KindWork:
			w.float.dispatch(&msg.Work)
		case KindGFWork:
			w.exact.dispatch(&msg.GFWork)
		case KindPartitionDrop:
			// The phase's job closed on the master: free its datasets. A Work
			// that still arrives for the phase finds no partition and is
			// ignored, exactly like one for a phase not yet delivered.
			w.mu.Lock()
			release(w.float.partitions, msg.DropPhase)
			release(w.float.pending, msg.DropPhase)
			release(w.exact.partitions, msg.DropPhase)
			release(w.exact.pending, msg.DropPhase)
			w.mu.Unlock()
		case KindPing:
			// Heartbeat: answer immediately from the receive loop. Pong
			// sends share the connection's write mutex with result sends,
			// so a busy compute round delays the answer by at most one
			// in-flight frame — size the master's miss budget accordingly.
			err = w.c.sendPong()
		case KindPong:
			// Workers never solicit pongs; tolerate one anyway (a future
			// symmetric heartbeat would send them).
		case KindShutdown:
			return nil
		default:
			return fmt.Errorf("rpc: worker got unexpected kind %d", msg.Kind)
		}
		if err != nil {
			return err
		}
	}
}

// start maps the destination storage of a streamed partition. Chunks
// decode straight into it; the partition becomes visible to work requests
// only once every row has arrived.
func (l *workerLane[C, T]) start(ps *PartitionStart) error {
	var ec C
	if !validPartitionDims(ps.Rows, ps.Cols) {
		return fmt.Errorf("rpc: %spartition start %dx%d rejected", ec.spec().label, ps.Rows, ps.Cols)
	}
	mem := kernel.Map[T](ps.Rows * ps.Cols)
	b := &partBuild[T]{m: ec.wrap(ps.Rows, ps.Cols, mem.Data()), mem: mem, seq: ps.Seq, remaining: ps.Rows}
	w := l.w
	w.mu.Lock()
	// The master serializes transfers per connection (both element types
	// share the per-conn transfer lock), so every build still pending when
	// a new stream starts belongs to an abandoned transfer. Dropping them
	// all bounds the memory pinned by aborted transfers to a single build.
	releaseAll(w.float.pending)
	releaseAll(w.exact.pending)
	if b.remaining == 0 {
		release(l.partitions, ps.Phase)
		l.partitions[ps.Phase] = b
	} else {
		l.pending[ps.Phase] = b
	}
	w.mu.Unlock()
	return nil
}

// store reads one row band from the connection straight into the
// partition matrix and returns a credit to the master's streaming window.
// Only the chunk's header has been received at this point: the transfer
// fence, the bounds and the row order are all checked before the first
// body byte lands, so a hostile or stale chunk leaves the rows untouched,
// and a body that ends short fails the connection with the build still
// pending — never published. The landed rows must then pass the codec's
// ingest check (GF canonicality) before they count.
func (l *workerLane[C, T]) store(msg *Msg) error {
	var ec C
	label := ec.spec().label
	w := l.w
	pc := &msg.PartChunk
	w.mu.Lock()
	b := l.pending[pc.Phase]
	w.mu.Unlock()
	if b == nil {
		return fmt.Errorf("rpc: %schunk for phase %d with no partition in progress", label, pc.Phase)
	}
	if pc.Seq != b.seq {
		return fmt.Errorf("rpc: %schunk seq %d for phase %d, transfer in progress is seq %d", label, pc.Seq, pc.Phase, b.seq)
	}
	rows, cols := b.m.Dims()
	if pc.Lo < 0 || pc.Hi > rows || pc.Lo >= pc.Hi {
		return fmt.Errorf("rpc: %schunk rows [%d,%d) outside partition [0,%d)", label, pc.Lo, pc.Hi, rows)
	}
	// The master streams rows strictly in order, so the chunk must start
	// exactly where the previous one ended. Without this, a duplicate or
	// overlapping chunk could drive `remaining` to zero and publish a
	// partition whose uncovered rows are silently zero — corrupt results
	// instead of a protocol error.
	if got := rows - b.remaining; pc.Lo != got {
		return fmt.Errorf("rpc: %schunk rows [%d,%d) out of order, expected start %d", label, pc.Lo, pc.Hi, got)
	}
	// The element count is checked against the rows and the frame size,
	// then the bytes move from the read buffer — and past what it holds,
	// from the socket — straight into the rows.
	dst := b.m.Data()[pc.Lo*cols : pc.Hi*cols]
	if err := ec.into(msg.chunk, dst); err != nil {
		return err
	}
	if !ec.valid(dst) {
		return fmt.Errorf("rpc: %schunk rows [%d,%d) carry non-canonical field elements", label, pc.Lo, pc.Hi)
	}
	b.remaining -= pc.Hi - pc.Lo
	if b.remaining <= 0 {
		// Published before the last ack, so a Work sent once Distribute
		// returns finds it.
		w.mu.Lock()
		release(l.partitions, pc.Phase)
		l.partitions[pc.Phase] = b
		delete(l.pending, pc.Phase)
		w.mu.Unlock()
	}
	return w.c.sendPartitionAck(pc.Phase, b.seq)
}

// release drops phase's entry from a lane map and releases its storage.
// The maps change under w.mu, so a handler's Retain is ordered before the
// release, and the receive loop never waits for a sweep: the last holder
// unmaps.
func release[T coding.Element](m map[int]*partBuild[T], phase int) {
	if b := m[phase]; b != nil {
		b.mem.Release()
		delete(m, phase)
	}
}

// releaseAll empties a lane map, releasing every entry's storage.
func releaseAll[T coding.Element](m map[int]*partBuild[T]) {
	for _, b := range m {
		b.mem.Release()
	}
	clear(m)
}

// dispatch hands an assignment to a concurrent handler by swapping the
// message's Work with a pooled slot: ownership of the decoded slices moves
// without copying, and the next recv reuses the slot's old capacity.
func (l *workerLane[C, T]) dispatch(msg *WorkOf[T]) {
	job := fromPool[WorkOf[T]](&l.works)
	*job, *msg = *msg, *job
	go l.handle(job)
}

// matVecChunk sizes row chunks for a width-w mat-vec sweep through the
// active kernel backend's per-chunk flop target (each row costs 2·cols·w
// flops), so vector backends get proportionally larger bands.
func matVecChunk(cols, w int) int {
	return kernel.ChunkRows(2 * cols * w)
}

// handle computes the assigned rows of this lane's partition into a
// pooled result slot (handlers run concurrently, so per-goroutine storage
// is borrowed, not owned) returned to the pool once the synchronous send
// completes — the worker side of a steady-state round allocates nothing
// either. GF results are bit-exact field values; there is no backend- or
// banding-dependent rounding on that path by construction.
func (l *workerLane[C, T]) handle(job *WorkOf[T]) {
	var ec C
	w := l.w
	defer l.works.Put(job)
	w.mu.Lock()
	b := l.partitions[job.Phase]
	if b != nil {
		b.mem.Retain() // a PartitionDrop mid-sweep leaves the unmap to us
	}
	w.mu.Unlock()
	if b == nil {
		return // partition not yet delivered; master will time us out
	}
	defer b.mem.Release()
	part := b.m
	_, cols := part.Dims()
	bw := job.W
	if len(job.X) != bw*cols {
		return // corrupt assignment; master will time us out and reassign
	}
	start := time.Now()
	res := fromPool[ResultOf[T]](&l.results)
	// Reset every scalar field: a pooled slot may carry Partial=true from
	// a split send whose error path skipped the final flush.
	res.Iter, res.Phase, res.Worker, res.Partial = job.Iter, job.Phase, 0, false
	res.Job = job.Job // echo the job tag so the master routes the result
	res.RowWidth = bw
	res.Ranges = coding.AppendNormalizeRanges(res.Ranges[:0], job.Ranges)
	total := coding.TotalRows(res.Ranges)
	res.Values = kernel.GrowSlice(res.Values, total*bw)
	at := 0
	chunk := matVecChunk(cols, bw)
	serial := w.cfg.Exec.Workers() == 1
	for _, r := range res.Ranges {
		seg := res.Values[at : at+r.Len()*bw]
		// Band-split the assigned rows on the worker's configured pool.
		// A range that is a single chunk — or any range on a one-core host
		// or MaxFan 1 — is swept right here: the closure For needs escapes
		// to the pool, so it is built only when there is a fan-out to feed.
		if serial || r.Len() <= chunk {
			ec.sweep(seg, part, job.X, bw, r.Lo, r.Hi)
		} else {
			lo := r.Lo
			w.cfg.Exec.For(r.Len(), chunk, func(clo, chi int) {
				ec.sweep(seg[clo*bw:chi*bw], part, job.X, bw, lo+clo, lo+chi)
			})
		}
		at += r.Len() * bw
	}
	elapsed := time.Since(start)
	res.ComputeNanos = int64(elapsed)
	// Straggler emulation: stretch compute time by the slowdown factor
	// plus the per-row floor.
	delay := time.Duration(float64(elapsed)*(w.cfg.Slowdown-1) +
		float64(w.cfg.PerRowDelay)*float64(total)*w.cfg.Slowdown)
	if delay > 0 {
		time.Sleep(delay)
	}
	l.sendBounded(res) //nolint:errcheck // conn errors surface in Run
	l.results.Put(res)
}

// sendBounded sends res, splitting it into range-aligned segments of at
// most cfg.maxResultRows values when necessary so result frames never
// outgrow the receiver's frame limit. Segments of a batched result carry
// whole rows — all RowWidth lanes of a row travel in one message — so the
// row cap is maxResultRows/width, floored at 1: a single row always ships
// whole, matching the one-row-chunk escape of partition streaming. Only
// the segment that completes the result clears Partial; the master counts
// the worker as responded on it.
func (l *workerLane[C, T]) sendBounded(res *ResultOf[T]) error {
	c := l.w.c
	wd := res.RowWidth
	maxRows := max(l.w.cfg.maxResultRows/wd, 1)
	total := coding.TotalRows(res.Ranges)
	if total <= maxRows {
		return c.sendResult(res)
	}
	sub := fromPool[ResultOf[T]](&l.results)
	sub.Iter, sub.Phase, sub.Worker, sub.ComputeNanos = res.Iter, res.Phase, res.Worker, res.ComputeNanos
	sub.Job = res.Job
	sub.RowWidth = wd
	sub.Ranges = sub.Ranges[:0]
	var err error
	at, rows := 0, 0 // consumed offset into the values, rows in the open segment
	for _, r := range res.Ranges {
		for lo := r.Lo; lo < r.Hi && err == nil; {
			take := min(r.Hi-lo, maxRows-rows)
			sub.Ranges = append(sub.Ranges, coding.Range{Lo: lo, Hi: lo + take})
			rows += take
			lo += take
			if rows == maxRows || at+rows == total {
				sub.Partial = at+rows < total
				sub.Values = res.Values[at*wd : (at+rows)*wd]
				err = c.sendResult(sub)
				at += rows
				rows = 0
				sub.Ranges = sub.Ranges[:0]
			}
		}
	}
	// sub.Values aliased segments of res.Values; detach before pooling so
	// two pooled results can never share a backing array.
	sub.Values = nil
	l.results.Put(sub)
	return err
}
