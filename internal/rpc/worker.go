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
	"github.com/coded-computing/s2c2/internal/mat"
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
	// MaxResultRows bounds one Result message's row count so result
	// frames stay well under the receiver's frame limit no matter how
	// large the partition is; larger results are split into several
	// messages, which the master's gather accepts natively. Zero selects
	// 4 Mi rows (≈ 32 MiB of values).
	MaxResultRows int
	// WriteTimeout is the base per-send write deadline (scaled up with
	// payload size), mirroring MasterConfig.StallTimeout on the master
	// side; raise it together with the master's on slow links. Zero
	// selects 30 seconds.
	WriteTimeout time.Duration
}

// partBuild is a streamed partition being assembled from chunks.
type partBuild struct {
	m         *mat.Dense
	seq       int // transfer sequence, echoed in every chunk ack
	remaining int // rows not yet received
}

// gfPartBuild is a streamed GF(2³¹−1) partition being assembled from
// chunks — the exact-path mirror of partBuild.
type gfPartBuild struct {
	m         *gf.Matrix
	seq       int
	remaining int
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
// (float64 and GF) must pass: non-negative rows, positive cols, and a
// Rows·Cols product bounded by division so a hostile header cannot
// overflow the check into passing.
func validPartitionDims(rows, cols int) bool {
	return rows >= 0 && cols > 0 && int64(rows) <= maxPartitionElems/int64(cols)
}

// Worker is the daemon side of the runtime: it stores coded partitions
// and executes assigned row ranges on demand.
type Worker struct {
	cfg WorkerConfig
	c   *wireConn

	mu           sync.Mutex
	partitions   map[int]*mat.Dense   // phase → coded partition
	pending      map[int]*partBuild   // phase → partition mid-stream
	gfPartitions map[int]*gf.Matrix   // phase → coded GF partition (exact path)
	gfPending    map[int]*gfPartBuild // phase → GF partition mid-stream

	workPool   sync.Pool // *Work slots for concurrent handlers
	resPool    sync.Pool // *Result send slots
	gfWorkPool sync.Pool // *GFWork slots
	gfResPool  sync.Pool // *GFResult send slots
}

// NewWorker dials the master, performs the wire handshake, and sends the
// hello.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Slowdown <= 0 {
		cfg.Slowdown = 1
	}
	if cfg.MaxResultRows <= 0 {
		cfg.MaxResultRows = 4 << 20
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
	w := &Worker{
		cfg:          cfg,
		c:            t,
		partitions:   map[int]*mat.Dense{},
		pending:      map[int]*partBuild{},
		gfPartitions: map[int]*gf.Matrix{},
		gfPending:    map[int]*gfPartBuild{},
	}
	if err := t.sendHello(&Hello{Slowdown: cfg.Slowdown}); err != nil {
		t.close()
		return nil, err
	}
	return w, nil
}

// Close tears down the worker's connection immediately: a blocked Run
// returns with the connection error. It is how a driver retires a worker
// in place of a process kill — chaos tests and the failover example use
// it to simulate a worker dying mid-job. Close is idempotent.
func (w *Worker) Close() error { return w.c.close() }

// Run processes messages until shutdown or connection loss. Work requests
// are served concurrently so a reassignment can overtake a slow round.
// When it returns the worker has released every partition it held: the
// Worker value can stay reachable past its connection (its sync.Pools keep
// it registered with the runtime for a further GC cycle), and the dataset
// must not ride along.
func (w *Worker) Run() error {
	defer func() {
		w.mu.Lock()
		clear(w.partitions)
		clear(w.pending)
		clear(w.gfPartitions)
		clear(w.gfPending)
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
		switch msg.Kind {
		case KindPartitionStart:
			if err := w.startPartition(&msg.PartStart); err != nil {
				return err
			}
		case KindPartitionChunk:
			if err := w.storeChunk(msg); err != nil {
				return err
			}
		case KindGFPartitionStart:
			if err := w.startGFPartition(&msg.PartStart); err != nil {
				return err
			}
		case KindGFPartitionChunk:
			if err := w.storeGFChunk(msg); err != nil {
				return err
			}
		case KindWork:
			// Hand the assignment to a concurrent handler by swapping the
			// message's Work with a pooled slot: ownership of the decoded
			// slices moves without copying, and the next recv reuses the
			// slot's old capacity.
			job := w.getWork()
			*job, msg.Work = msg.Work, *job
			go w.handleWork(job)
		case KindGFWork:
			job := w.getGFWork()
			*job, msg.GFWork = msg.GFWork, *job
			go w.handleGFWork(job)
		case KindPartitionDrop:
			// The phase's job closed on the master: free its dataset. A Work
			// that still arrives for the phase finds no partition and is
			// ignored, exactly like one for a phase not yet delivered.
			w.mu.Lock()
			delete(w.partitions, msg.DropPhase)
			delete(w.pending, msg.DropPhase)
			delete(w.gfPartitions, msg.DropPhase)
			delete(w.gfPending, msg.DropPhase)
			w.mu.Unlock()
		case KindPing:
			// Heartbeat: answer immediately from the receive loop. Pong
			// sends share the connection's write mutex with result sends,
			// so a busy compute round delays the answer by at most one
			// in-flight frame — size the master's miss budget accordingly.
			if err := w.c.sendPong(); err != nil {
				return err
			}
		case KindPong:
			// Workers never solicit pongs; tolerate one anyway (a future
			// symmetric heartbeat would send them).
		case KindShutdown:
			return nil
		default:
			return fmt.Errorf("rpc: worker got unexpected kind %d", msg.Kind)
		}
	}
}

// startPartition allocates the destination matrix of a streamed
// partition. Chunks decode straight into it; the partition becomes
// visible to work requests only once every row has arrived.
func (w *Worker) startPartition(ps *PartitionStart) error {
	if !validPartitionDims(ps.Rows, ps.Cols) {
		return fmt.Errorf("rpc: partition start %dx%d rejected", ps.Rows, ps.Cols)
	}
	b := &partBuild{m: mat.New(ps.Rows, ps.Cols), seq: ps.Seq, remaining: ps.Rows}
	w.mu.Lock()
	// The master serializes transfers per connection (float64 and GF alike
	// share the per-conn transfer lock), so every build still pending when
	// a new stream starts belongs to an abandoned transfer. Dropping them
	// all bounds the memory pinned by aborted transfers to a single build.
	clear(w.pending)
	clear(w.gfPending)
	if b.remaining == 0 {
		w.partitions[ps.Phase] = b.m
	} else {
		w.pending[ps.Phase] = b
	}
	w.mu.Unlock()
	return nil
}

// startGFPartition allocates the destination matrix of a streamed GF
// partition; chunks decode straight into it and the partition becomes
// visible to GF work requests only once every row has arrived.
func (w *Worker) startGFPartition(ps *PartitionStart) error {
	if !validPartitionDims(ps.Rows, ps.Cols) {
		return fmt.Errorf("rpc: GF partition start %dx%d rejected", ps.Rows, ps.Cols)
	}
	b := &gfPartBuild{m: gf.NewMatrix(ps.Rows, ps.Cols), seq: ps.Seq, remaining: ps.Rows}
	w.mu.Lock()
	clear(w.pending)
	clear(w.gfPending)
	if b.remaining == 0 {
		w.gfPartitions[ps.Phase] = b.m
	} else {
		w.gfPending[ps.Phase] = b
	}
	w.mu.Unlock()
	return nil
}

// storeGFChunk reads one field-element row band from the connection
// straight into the GF partition matrix and returns a credit to the
// master's streaming window. It applies the same header-before-body
// checks and strict in-order contract as the float64 path, plus a
// canonicality check on the landed rows: the worker's Mersenne-folded
// mat-vec bounds its intermediate arithmetic on every element being < P,
// so non-canonical lanes are a protocol error, not a silent wraparound
// later.
func (w *Worker) storeGFChunk(msg *Msg) error {
	pc := &msg.PartChunk
	w.mu.Lock()
	b := w.gfPending[pc.Phase]
	w.mu.Unlock()
	if b == nil {
		return fmt.Errorf("rpc: GF chunk for phase %d with no partition in progress", pc.Phase)
	}
	if pc.Seq != b.seq {
		return fmt.Errorf("rpc: GF chunk seq %d for phase %d, transfer in progress is seq %d", pc.Seq, pc.Phase, b.seq)
	}
	rows, cols := b.m.Dims()
	if pc.Lo < 0 || pc.Hi > rows || pc.Lo >= pc.Hi {
		return fmt.Errorf("rpc: GF chunk rows [%d,%d) outside partition [0,%d)", pc.Lo, pc.Hi, rows)
	}
	if got := rows - b.remaining; pc.Lo != got {
		return fmt.Errorf("rpc: GF chunk rows [%d,%d) out of order, expected start %d", pc.Lo, pc.Hi, got)
	}
	dst := b.m.Data()[pc.Lo*cols : pc.Hi*cols]
	if err := msg.GFChunkInto(dst); err != nil {
		return err
	}
	if !gf.Valid(dst) {
		return fmt.Errorf("rpc: GF chunk rows [%d,%d) carry non-canonical field elements", pc.Lo, pc.Hi)
	}
	b.remaining -= pc.Hi - pc.Lo
	if err := w.c.sendPartitionAck(pc.Phase, b.seq); err != nil {
		return err
	}
	if b.remaining <= 0 {
		w.mu.Lock()
		w.gfPartitions[pc.Phase] = b.m
		delete(w.gfPending, pc.Phase)
		w.mu.Unlock()
	}
	return nil
}

// storeChunk reads one row band from the connection straight into the
// partition matrix and returns a credit to the master's streaming window.
// Only the chunk's header has been received at this point: the transfer
// fence, the bounds and the row order are all checked before ChunkInto
// lets the first body byte land, so a hostile or stale chunk leaves the
// rows untouched, and a body that ends short fails the connection with
// the build still pending — never published.
func (w *Worker) storeChunk(msg *Msg) error {
	pc := &msg.PartChunk
	w.mu.Lock()
	b := w.pending[pc.Phase]
	w.mu.Unlock()
	if b == nil {
		return fmt.Errorf("rpc: chunk for phase %d with no partition in progress", pc.Phase)
	}
	if pc.Seq != b.seq {
		return fmt.Errorf("rpc: chunk seq %d for phase %d, transfer in progress is seq %d", pc.Seq, pc.Phase, b.seq)
	}
	rows, cols := b.m.Dims()
	if pc.Lo < 0 || pc.Hi > rows || pc.Lo >= pc.Hi {
		return fmt.Errorf("rpc: chunk rows [%d,%d) outside partition [0,%d)", pc.Lo, pc.Hi, rows)
	}
	// The master streams rows strictly in order, so the chunk must start
	// exactly where the previous one ended. Without this, a duplicate or
	// overlapping chunk could drive `remaining` to zero and publish a
	// partition whose uncovered rows are silently zero — corrupt results
	// instead of a protocol error.
	if got := rows - b.remaining; pc.Lo != got {
		return fmt.Errorf("rpc: chunk rows [%d,%d) out of order, expected start %d", pc.Lo, pc.Hi, got)
	}
	if err := msg.ChunkInto(b.m.Data()[pc.Lo*cols : pc.Hi*cols]); err != nil {
		return err
	}
	b.remaining -= pc.Hi - pc.Lo
	if err := w.c.sendPartitionAck(pc.Phase, b.seq); err != nil {
		return err
	}
	if b.remaining <= 0 {
		w.mu.Lock()
		w.partitions[pc.Phase] = b.m
		delete(w.pending, pc.Phase)
		w.mu.Unlock()
	}
	return nil
}

func (w *Worker) getWork() *Work {
	if v := w.workPool.Get(); v != nil {
		return v.(*Work)
	}
	return &Work{}
}

func (w *Worker) getResult() *Result {
	if v := w.resPool.Get(); v != nil {
		return v.(*Result)
	}
	return &Result{}
}

func (w *Worker) getGFWork() *GFWork {
	if v := w.gfWorkPool.Get(); v != nil {
		return v.(*GFWork)
	}
	return &GFWork{}
}

func (w *Worker) getGFResult() *GFResult {
	if v := w.gfResPool.Get(); v != nil {
		return v.(*GFResult)
	}
	return &GFResult{}
}

// matVecChunk sizes row chunks for a width-w mat-vec sweep through the
// active kernel backend's per-chunk flop target (each row costs 2·cols·w
// flops), so vector backends get proportionally larger bands.
func matVecChunk(cols, w int) int {
	return kernel.ChunkRows(2 * cols * w)
}

// matVecRows sweeps rows [lo, hi) of the partition against the round's bw
// input vectors into dst (row-major bw-wide). Batched rounds run the fused
// multi-x kernel: one sweep of the band serves every lane.
func matVecRows(dst []float64, part *mat.Dense, xs []float64, bw, lo, hi int) {
	if bw == 1 {
		kernel.MatVecRange(dst, part.Data(), part.Cols(), xs, lo, hi)
	} else {
		kernel.MatVecRangeBatch(dst, part.Data(), part.Cols(), xs, bw, lo, hi)
	}
}

// gfMatVecRows is matVecRows over the field.
func gfMatVecRows(dst []gf.Elem, part *gf.Matrix, xs []gf.Elem, bw, lo, hi int) {
	if bw == 1 {
		part.MulVecRangeInto(dst, xs, lo, hi)
	} else {
		part.MulVecBatchRangeInto(dst, xs, bw, lo, hi)
	}
}

// handleWork computes the assigned rows of this worker's partition into a
// pooled result slot (handleWork runs concurrently, so per-goroutine
// storage is borrowed, not owned) returned to the pool once the
// synchronous send completes — the worker side of a steady-state round
// allocates nothing either.
func (w *Worker) handleWork(job *Work) {
	defer w.workPool.Put(job)
	w.mu.Lock()
	part := w.partitions[job.Phase]
	w.mu.Unlock()
	if part == nil {
		return // partition not yet delivered; master will time us out
	}
	cols := part.Cols()
	bw := max(job.W, 1)
	if len(job.X) != bw*cols {
		return // corrupt assignment; master will time us out and reassign
	}
	start := time.Now()
	res := w.getResult()
	// Reset every scalar field: a pooled slot may carry Partial=true from
	// a split send whose error path skipped the final flush.
	res.Iter, res.Phase, res.Worker, res.Partial = job.Iter, job.Phase, 0, false
	res.Job = job.Job // echo the job tag so the master routes the result
	res.RowWidth = bw
	res.Ranges = coding.AppendNormalizeRanges(res.Ranges[:0], job.Ranges)
	total := coding.TotalRows(res.Ranges)
	res.Values = kernel.Grow(res.Values, total*bw)
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
			matVecRows(seg, part, job.X, bw, r.Lo, r.Hi)
		} else {
			lo := r.Lo
			w.cfg.Exec.For(r.Len(), chunk, func(clo, chi int) {
				matVecRows(seg[clo*bw:chi*bw], part, job.X, bw, lo+clo, lo+chi)
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
	w.sendResultBounded(res) //nolint:errcheck // conn errors surface in Run
	w.resPool.Put(res)
}

// handleGFWork computes the assigned rows of this worker's GF partition —
// the exact mirror of handleWork: Mersenne-folded mat-vec over the field
// banded on the worker's pool, pooled result slots, bounded result frames.
// Results are bit-exact field values; there is no backend- or banding-
// dependent rounding on this path by construction.
func (w *Worker) handleGFWork(job *GFWork) {
	defer w.gfWorkPool.Put(job)
	w.mu.Lock()
	part := w.gfPartitions[job.Phase]
	w.mu.Unlock()
	if part == nil {
		return // partition not yet delivered; master will time us out
	}
	_, cols := part.Dims()
	bw := max(job.W, 1)
	if len(job.X) != bw*cols {
		return // corrupt assignment; master will time us out and reassign
	}
	start := time.Now()
	res := w.getGFResult()
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
		if serial || r.Len() <= chunk {
			gfMatVecRows(seg, part, job.X, bw, r.Lo, r.Hi)
		} else {
			lo := r.Lo
			w.cfg.Exec.For(r.Len(), chunk, func(clo, chi int) {
				gfMatVecRows(seg[clo*bw:chi*bw], part, job.X, bw, lo+clo, lo+chi)
			})
		}
		at += r.Len() * bw
	}
	elapsed := time.Since(start)
	res.ComputeNanos = int64(elapsed)
	delay := time.Duration(float64(elapsed)*(w.cfg.Slowdown-1) +
		float64(w.cfg.PerRowDelay)*float64(total)*w.cfg.Slowdown)
	if delay > 0 {
		time.Sleep(delay)
	}
	w.sendGFResultBounded(res) //nolint:errcheck // conn errors surface in Run
	w.gfResPool.Put(res)
}

// splitResultRanges is the one bounded-result segmentation algorithm
// shared by both element types: it walks ranges in range-aligned segments
// of at most maxRows rows, calling emit(seg, at, rows, last) per segment
// — seg is the segment's range list (aliasing scratch), at the row offset
// into the concatenated values, last whether this segment completes the
// result (only that one clears the Partial flag; the master counts the
// worker as responded on it). It stops on the first emit error and
// returns the scratch slice for capacity reuse.
func splitResultRanges(ranges []coding.Range, total, maxRows int, scratch []coding.Range,
	emit func(seg []coding.Range, at, rows int, last bool) error) ([]coding.Range, error) {
	at, rows := 0, 0 // consumed offset into the values, rows in the open segment
	seg := scratch[:0]
	flush := func() error {
		err := emit(seg, at, rows, at+rows >= total)
		at += rows
		rows = 0
		seg = seg[:0]
		return err
	}
	for _, r := range ranges {
		lo := r.Lo
		for lo < r.Hi {
			take := r.Hi - lo
			if take > maxRows-rows {
				take = maxRows - rows
			}
			seg = append(seg, coding.Range{Lo: lo, Hi: lo + take})
			rows += take
			lo += take
			if rows == maxRows {
				if err := flush(); err != nil {
					return seg, err
				}
			}
		}
	}
	if rows > 0 {
		if err := flush(); err != nil {
			return seg, err
		}
	}
	return seg, nil
}

// boundedRows is the per-message row cap for a width-wide result: the
// configured MaxResultRows budget counts values, so batched rounds split
// at maxRows/width rows (floored at 1 — a single row always ships whole,
// matching the one-row-chunk escape of partition streaming).
func boundedRows(maxRows, width int) int {
	rows := maxRows / width
	if rows < 1 {
		rows = 1
	}
	return rows
}

// sendResultBounded sends res, splitting it into range-aligned segments
// of at most cfg.MaxResultRows values when necessary so result frames
// never outgrow the receiver's frame limit. Segments of a batched result
// carry whole rows — all RowWidth lanes of a row travel in one message.
func (w *Worker) sendResultBounded(res *Result) error {
	wd := res.RowWidth
	if wd < 1 {
		wd = 1
	}
	maxRows := boundedRows(w.cfg.MaxResultRows, wd)
	total := coding.TotalRows(res.Ranges)
	if total <= maxRows {
		return w.c.sendResult(res)
	}
	sub := w.getResult()
	sub.Iter, sub.Phase, sub.Worker, sub.ComputeNanos = res.Iter, res.Phase, res.Worker, res.ComputeNanos
	sub.Job = res.Job
	sub.RowWidth = wd
	scratch, err := splitResultRanges(res.Ranges, total, maxRows, sub.Ranges[:0],
		func(seg []coding.Range, at, rows int, last bool) error {
			sub.Ranges = seg
			sub.Partial = !last
			sub.Values = res.Values[at*wd : (at+rows)*wd]
			return w.c.sendResult(sub)
		})
	sub.Ranges = scratch
	// sub.Values aliased segments of res.Values; detach before pooling so
	// two pooled results can never share a backing array.
	sub.Values = nil
	w.resPool.Put(sub)
	return err
}

// sendGFResultBounded is sendResultBounded for the exact path — the same
// segmentation via splitResultRanges, emitting GF result frames.
func (w *Worker) sendGFResultBounded(res *GFResult) error {
	wd := res.RowWidth
	if wd < 1 {
		wd = 1
	}
	maxRows := boundedRows(w.cfg.MaxResultRows, wd)
	total := coding.TotalRows(res.Ranges)
	if total <= maxRows {
		return w.c.sendGFResult(res)
	}
	sub := w.getGFResult()
	sub.Iter, sub.Phase, sub.Worker, sub.ComputeNanos = res.Iter, res.Phase, res.Worker, res.ComputeNanos
	sub.Job = res.Job
	sub.RowWidth = wd
	scratch, err := splitResultRanges(res.Ranges, total, maxRows, sub.Ranges[:0],
		func(seg []coding.Range, at, rows int, last bool) error {
			sub.Ranges = seg
			sub.Partial = !last
			sub.Values = res.Values[at*wd : (at+rows)*wd]
			return w.c.sendGFResult(sub)
		})
	sub.Ranges = scratch
	// sub.Values aliased segments of res.Values; detach before pooling.
	sub.Values = nil
	w.gfResPool.Put(sub)
	return err
}
