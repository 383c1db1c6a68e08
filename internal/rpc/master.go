package rpc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/wire"
)

// MasterConfig configures a master.
type MasterConfig struct {
	// Addr is the listen address (e.g. "127.0.0.1:0").
	Addr string
	// Exec pins the master's compute (and, via Exec(), the codecs a
	// driver wires to this master) to a pool and fan-out, so co-tenant
	// masters in one process stop contending for the shared
	// GOMAXPROCS-sized default pool. The zero value uses the default.
	Exec kernel.Exec
	// ReuseRound lets Run return partials and stats backed by a per-job
	// workspace that the job's NEXT round overwrites. Drivers that decode
	// each round before starting the next (every iterative workload) set
	// it to make the steady-state gather path allocation-free; leave it
	// false if round results must outlive the following round.
	ReuseRound bool
	// StallTimeout bounds how long a round waits for responders (both
	// before and after reassignment) and how long a streamed partition
	// transfer waits for a chunk credit. Zero selects 30 seconds.
	StallTimeout time.Duration
	// ChunkRows is the row granularity of streamed partition transfers.
	// Zero sizes chunks to ~256 KiB of row data.
	ChunkRows int
	// ChunkWindow is the credit window of a streamed partition transfer:
	// the number of unacknowledged chunks the master keeps in flight per
	// worker. Zero selects 4; values are clamped to [1, 128].
	ChunkWindow int
	// Retry configures the distribute-path retry engine: on a
	// *PartitionError, only the failed workers' partitions are re-streamed
	// — to a warm spare from the parked pool when one is available — under
	// bounded exponential backoff. The zero value disables retries.
	Retry RetryConfig
	// Heartbeat is the cadence of the liveness watch: every interval the
	// master pings all connections — registered workers and parked spares
	// alike — and declares a connection dead when no pong arrives within
	// HeartbeatMiss intervals. Zero disables the watch. Choose an interval
	// comfortably above the link's frame delivery time: a pong queues
	// behind whatever frame is mid-flight on the worker's sender.
	Heartbeat time.Duration
	// HeartbeatMiss is the number of consecutive silent heartbeat
	// intervals tolerated before eviction. Zero selects 3.
	HeartbeatMiss int
	// EvictAfter evicts a worker once it has failed this many consecutive
	// rounds (timed out or dead each time, never responding in between).
	// An evicted slot stays dead until RepairWorkers promotes a spare into
	// it. Zero disables round-failure eviction.
	EvictAfter int
	// MaxConcurrentRounds caps how many rounds — across all jobs — may be
	// in flight at once. Rounds past the cap park in the serving wait
	// queue until a slot frees; Policy picks which parked round runs next.
	// Zero means unlimited (no queue), the pre-serving behavior.
	MaxConcurrentRounds int
	// Policy selects the next queued round when a slot frees. Nil selects
	// FCFS — strict admission order, an identity op over the queue.
	Policy PriorityPolicy
}

// defaultStallTimeout applies when MasterConfig.StallTimeout is zero.
const defaultStallTimeout = 30 * time.Second

// ackBuffer sizes each worker's credit channel; it only needs to cover
// the largest permitted ChunkWindow plus slack for stale credits from an
// aborted transfer.
const ackBuffer = 256

//s2c2:noalloc
func (m *Master) stallTimeout() time.Duration {
	if m.cfg.StallTimeout > 0 {
		return m.cfg.StallTimeout
	}
	return defaultStallTimeout
}

func (m *Master) chunkRowsFor(cols, elemBytes int) int {
	if cols < 1 {
		cols = 1
	}
	// A chunk's row data must stay well under the receiver's frame limit
	// no matter what ChunkRows was configured to; 32 MiB per chunk leaves
	// ample headroom below maxRPCFrame. (A single row wider than that
	// still ships as a one-row chunk — the rpc frame cap of 1 GiB covers
	// rows up to 128 Mi float64 columns.) elemBytes is 8 for float64
	// partitions, 4 for GF(2³¹−1) field elements.
	maxRows := (32 << 20) / elemBytes / cols
	if maxRows < 1 {
		maxRows = 1
	}
	rows := m.cfg.ChunkRows
	if rows <= 0 {
		rows = (256 << 10) / elemBytes / cols // ~256 KiB of row data per chunk
	}
	if rows > maxRows {
		rows = maxRows
	}
	if rows < 1 {
		rows = 1
	}
	return rows
}

func (m *Master) chunkWindow() int {
	w := m.cfg.ChunkWindow
	if w <= 0 {
		w = 4
	}
	if w > 128 {
		w = 128
	}
	return w
}

// workerConn is the master's per-worker connection state: the framed
// connection plus the channels its readLoop uses to route flow-control
// credits and signal connection loss.
type workerConn struct {
	t *wireConn
	// acks receives one (phase, seq) credit per stored partition chunk;
	// the streaming sender blocks on it when its window is exhausted.
	acks chan PartitionAck
	// dead closes when the readLoop exits, so a partition transfer in
	// flight fails promptly instead of waiting out the stall timeout.
	dead chan struct{}
	// xfer serializes partition transfers on this connection: concurrent
	// Distribute calls for different phases would otherwise
	// consume (and drop) each other's credits off the shared acks channel.
	xfer sync.Mutex
	// id is the worker slot this connection serves, or -1 while parked in
	// the spare pool. The readLoop reads it per message, so a spare
	// promoted into a slot starts attributing traffic to it without a
	// loop restart.
	id atomic.Int64
	// lastPong is the UnixNano of the latest pong (seeded at admission);
	// the heartbeat watcher evicts connections whose pong age exceeds the
	// miss budget.
	lastPong atomic.Int64
	// evicted marks a deliberate teardown (replacement, eviction policy):
	// the readLoop exits silently instead of reporting a worker failure
	// that was already attributed elsewhere.
	evicted atomic.Bool
}

// Master coordinates a real TCP cluster: it accepts worker connections,
// streams coded partitions, runs assignment rounds, and decodes results.
//
// A master serves any number of jobs concurrently over the same worker
// connections (OpenJob); single-tenant callers pass the built-in default
// job (DefaultJob) to Run and Distribute and never see the serving layer.
type Master struct {
	cfg MasterConfig
	ln  net.Listener
	// ctx is cancelled by Shutdown; quit is its Done channel.
	ctx    context.Context
	cancel context.CancelFunc
	quit   <-chan struct{}
	// acceptDone closes when the accept loop ends; acceptErr, written
	// before, is the Accept error that ended it.
	acceptDone chan struct{}
	acceptErr  error

	mu         sync.Mutex
	workers    []*workerConn
	pending    []*workerConn // spare pool: every admitted connection parks here first
	closing    bool
	lastReject error // the latest rejected handshake, for WaitForWorkers' timeout error
	// failStreak[w] counts worker w's consecutive failed rounds (timed out
	// or dead, never responding in between); EvictAfter reads it.
	failStreak []int
	// parts/gfParts retain the distributed float64/GF partitions per wire
	// phase — across every job — so a replacement worker promoted into a
	// slot can be brought up to the incumbent's state by re-streaming
	// (retryPartitions, RepairWorkers).
	parts   map[int][]Partition[float64]
	gfParts map[int][]Partition[gf.Elem]
	// totals accumulates lifetime recovery counters (RecoveryTotals).
	totals RecoveryStats

	// pendingReady holds one token when pending is non-empty, so a
	// WaitForWorkers call already inside its wait loop notices workers
	// parked mid-call.
	pendingReady chan struct{}

	// def is the built-in default job (id 0, DefaultJob).
	def Job
	// jobsMu guards the job registry; the readLoops take it per result to
	// route by job id, so it is an RWMutex written only on OpenJob/Close.
	jobsMu  sync.RWMutex
	jobs    map[int]*Job
	jobSeq  int          // last job id handed out
	wireSeq atomic.Int64 // wire-phase namespace allocator (non-default jobs)

	// qmu guards the round wait queue (MaxConcurrentRounds).
	qmu          sync.Mutex
	activeRounds int
	waitq        []*roundTicket
	ticketSeq    int
	ticketView   []JobTicket // reused policy snapshot

	wg      sync.WaitGroup // accept loop, handshakes, readLoops, heartbeat
	xferSeq atomic.Int64   // partition-transfer sequence (stale-ack fencing)
}

// NewMaster listens on addr (e.g. "127.0.0.1:0") with a default config.
func NewMaster(addr string) (*Master, error) {
	return NewMasterWithConfig(MasterConfig{Addr: addr})
}

// NewMasterWithConfig listens according to cfg and starts the accept
// loop: from here on every worker that dials in and completes the
// handshake parks in the spare pool until WaitForWorkers or a
// replacement promotion gives it a slot.
func NewMasterWithConfig(cfg MasterConfig) (*Master, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("rpc: listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	m := &Master{
		cfg:          cfg,
		ln:           ln,
		ctx:          ctx,
		cancel:       cancel,
		quit:         ctx.Done(),
		acceptDone:   make(chan struct{}),
		parts:        map[int][]Partition[float64]{},
		gfParts:      map[int][]Partition[gf.Elem]{},
		pendingReady: make(chan struct{}, 1),
	}
	initJob(&m.def, m, 0, JobConfig{})
	m.jobs = map[int]*Job{0: &m.def}
	m.wireSeq.Store(jobPhaseBase)
	m.wg.Add(1)
	go m.acceptLoop()
	if cfg.Heartbeat > 0 {
		m.wg.Add(1)
		go m.heartbeatLoop()
	}
	return m, nil
}

// Addr returns the listen address workers should dial.
func (m *Master) Addr() string { return m.ln.Addr().String() }

// Exec returns the execution resources this master was configured with;
// drivers pass it to the codecs they pair with the master (SetExec) so
// one process can host several masters without pool contention.
func (m *Master) Exec() kernel.Exec { return m.cfg.Exec }

// handshakeTimeout bounds how long one accepted connection may take to
// complete its handshake and hello before it is rejected.
const handshakeTimeout = 5 * time.Second

// maxConcurrentAdmits caps handshakes in flight at once; connections past
// the cap wait in the listener backlog.
const maxConcurrentAdmits = 32

// Accept retry bounds: start quick (a transient error burst should not
// delay a joining worker), cap low enough that a recovering listener is
// rediscovered promptly.
const (
	admitBaseBackoff = 10 * time.Millisecond
	admitMaxBackoff  = 2 * time.Second
)

// WaitForWorkers registers parked workers, oldest first, until n are
// connected or the timeout expires. Worker IDs therefore follow
// admission-completion order. The accept loop parks every admitted
// connection on its own, so the cluster never grows past n mid-call: a
// worker admitted after the target is reached waits in the spare pool
// for the next call (or a replacement promotion).
//
// If the accept loop has ended (the listener closed, or the master shut
// down), the call returns the loop's error at once instead of waiting out
// the timeout. A timeout wraps os.ErrDeadlineExceeded and names the last
// rejected handshake, if any.
func (m *Master) WaitForWorkers(n int, timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for m.NumWorkers() < n {
		if wc := m.popPending(); wc != nil {
			m.register(wc)
			continue
		}
		select {
		case <-m.pendingReady:
		case <-m.acceptDone:
			return fmt.Errorf("rpc: accept (have %d/%d workers): %w", m.NumWorkers(), n, m.acceptErr)
		case <-timer.C:
			m.mu.Lock()
			lastReject := m.lastReject
			m.mu.Unlock()
			if lastReject != nil {
				return fmt.Errorf("rpc: wait for workers: %w (have %d/%d workers, last rejected conn: %v)",
					os.ErrDeadlineExceeded, m.NumWorkers(), n, lastReject)
			}
			return fmt.Errorf("rpc: wait for workers: %w (have %d/%d workers)",
				os.ErrDeadlineExceeded, m.NumWorkers(), n)
		}
	}
	return nil
}

// acceptLoop accepts joining workers for the life of the master and
// parks each admitted one in the spare pool. Handshakes run concurrently,
// at most maxConcurrentAdmits at once, so one slow or stalled dialer
// delays later workers by nothing; a rejected handshake is closed and the
// loop keeps serving. Accept errors split two ways: a closed listener is
// permanent (the loop exits, and WaitForWorkers reports the error) while
// transient failures (EMFILE pressure, resets during the TCP handshake)
// are retried under exponential backoff. Outside of Shutdown both kinds
// are tallied in RecoveryStats.AcceptFailures, so a dead or misbehaving
// listener shows up in RecoveryTotals instead of failing silently.
func (m *Master) acceptLoop() {
	defer m.wg.Done()
	defer close(m.acceptDone)
	slots := make(chan struct{}, maxConcurrentAdmits)
	backoff := admitBaseBackoff
	for {
		c, err := m.ln.Accept()
		if err != nil {
			m.mu.Lock()
			closing := m.closing
			if !closing {
				m.totals.AcceptFailures++
			}
			m.mu.Unlock()
			if closing || errors.Is(err, net.ErrClosed) {
				m.acceptErr = err
				return
			}
			select {
			case <-m.quit:
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > admitMaxBackoff {
				backoff = admitMaxBackoff
			}
			continue
		}
		backoff = admitBaseBackoff
		slots <- struct{}{}
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			defer func() { <-slots }()
			// Shutdown closes a connection still mid-handshake, so no
			// admission outlives the master by up to handshakeTimeout.
			stop := context.AfterFunc(m.ctx, func() { c.Close() })
			wc, err := m.admit(c)
			stop()
			if err != nil {
				m.mu.Lock()
				m.lastReject = fmt.Errorf("%s: %w", c.RemoteAddr(), err)
				m.mu.Unlock()
				return
			}
			m.enqueuePending(wc)
		}()
	}
}

// enqueuePending parks an admitted connection in the spare pool for a
// later WaitForWorkers call or a replacement promotion (closing it
// instead if the master is shutting down) and pulses pendingReady so a
// call already waiting picks it up.
//
// Parking starts the connection's one read loop, which serves it for
// life, parked and registered alike. A spare that dies while parked is
// discovered the moment its connection errors — the loop discards it
// from the pool (dropParked) instead of letting a later registration
// inherit a corpse. Promotion into a worker slot is an atomic id swap
// observed by that same loop, not a loop restart.
func (m *Master) enqueuePending(wc *workerConn) {
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		wc.t.close()
		return
	}
	m.pending = append(m.pending, wc)
	m.wg.Add(1)
	go m.readLoop(wc)
	m.mu.Unlock()
	select {
	case m.pendingReady <- struct{}{}:
	default: // token already posted
	}
}

// popPending dequeues the oldest parked connection that is still alive, or
// nil. Dead spares are normally discarded by their read loops the moment
// they die; the liveness check here is the second line of defense against
// the race where a pop lands between a spare's death and its discard.
func (m *Master) popPending() *workerConn {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(m.pending) > 0 {
		wc := m.pending[0]
		m.pending = m.pending[1:]
		select {
		case <-wc.dead:
			continue // died while parked
		default:
		}
		return wc
	}
	return nil
}

// register assigns the next worker ID to a connection popped from the
// spare pool; its read loop, started when it parked, merely observes the
// id swap. A connection popped after Shutdown began is turned away (its
// connection closed) instead of registered: the worker would miss
// Shutdown's close sweep.
func (m *Master) register(wc *workerConn) {
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		wc.t.close()
		return
	}
	id := len(m.workers)
	m.workers = append(m.workers, wc)
	m.failStreak = append(m.failStreak, 0)
	wc.id.Store(int64(id))
	m.mu.Unlock()
}

// admit runs the handshake + hello exchange on a freshly accepted
// connection under handshakeTimeout, returning the worker state to park
// or closing the connection.
func (m *Master) admit(c net.Conn) (*workerConn, error) {
	c.SetDeadline(time.Now().Add(handshakeTimeout)) //nolint:errcheck
	version, err := wire.ReadHandshake(c)
	if err != nil {
		c.Close()
		return nil, err
	}
	if version != wire.VersionWire {
		c.Close() // reject this conn at once, keep serving
		return nil, fmt.Errorf("rpc: unsupported protocol version %d", version)
	}
	t := newWireConn(c, m.stallTimeout())
	var msg Msg
	if err := t.recv(&msg); err != nil {
		t.close()
		return nil, fmt.Errorf("rpc: hello: %w", err)
	}
	if msg.Kind != KindHello {
		t.close()
		return nil, fmt.Errorf("rpc: first message kind %d, want hello", msg.Kind)
	}
	c.SetDeadline(time.Time{}) //nolint:errcheck
	wc := &workerConn{t: t, acks: make(chan PartitionAck, ackBuffer), dead: make(chan struct{})}
	wc.id.Store(-1) // parked until register assigns a slot
	wc.lastPong.Store(time.Now().UnixNano())
	return wc, nil
}

// readLoop pumps one connection's messages into the master until the
// connection drops or the master shuts down: results go to their job's
// round channel (decoded into pooled slots — the steady-state receive path
// allocates nothing), partition acks return credits to the streaming
// sender, pongs feed the liveness watch. One loop serves the connection
// for its whole life — parked or registered — reading the worker slot per
// message, so promoting a spare into a slot is an atomic id swap, not a
// loop restart. A connection that dies while parked is discarded from the
// spare pool on the spot; one that dies while registered is reported as a
// typed *WorkerError so the round path can fold its rows back into the
// plan.
//
//s2c2:noalloc
func (m *Master) readLoop(wc *workerConn) {
	defer m.wg.Done()
	defer close(wc.dead)
	// One receive struct per connection, reused for every frame.
	//s2c2:waive noalloc
	msg := &Msg{}
	for {
		if err := wc.t.recv(msg); err != nil {
			if m.isClosing() || wc.evicted.Load() {
				return // orderly teardown: the close raced the read, by design
			}
			id := int(wc.id.Load())
			if id < 0 {
				// Died while parked: discard the spare eagerly instead of
				// letting a later registration inherit a corpse.
				//s2c2:waive noalloc
				m.dropParked(wc)
				return
			}
			// Failure path: the connection is already dead here. Every
			// job's round may hold assignments on this worker, so the
			// death is broadcast to all of them.
			//s2c2:waive noalloc
			m.broadcastWorkerError(&WorkerError{Worker: id, Err: err, conn: wc})
			return
		}
		// Results go to the owning job's lane; a parked spare has no slot to
		// attribute them to, and a closed or unknown job's frames drop.
		id := int(wc.id.Load())
		switch msg.Kind {
		case KindResult:
			if j := m.jobFor(msg.Result.Job); id >= 0 && j != nil && !j.float.deliver(&msg.Result, id, m.quit) {
				return
			}
		case KindGFResult:
			if j := m.jobFor(msg.GFResult.Job); id >= 0 && j != nil && !j.exact.deliver(&msg.GFResult, id, m.quit) {
				return
			}
		case KindPong:
			wc.lastPong.Store(time.Now().UnixNano())
		case KindPartitionAck:
			// Never block the readLoop on the credit channel: a full
			// buffer means stale acks from aborted transfers accumulated
			// with nothing draining them, and parking here would stop
			// Result forwarding for this worker permanently. Dropping is
			// safe — credits are (phase, seq)-fenced, and an active
			// transfer that loses one is bounded by its stall timeout.
			select {
			case wc.acks <- msg.PartAck:
			default:
			}
		}
	}
}

func (m *Master) isClosing() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closing
}

// NumWorkers returns the connected worker count.
func (m *Master) NumWorkers() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.workers)
}

// conns returns the current worker connections. Snapshots are immutable:
// registration only ever appends under the lock (past a snapshot's
// length), and replaceWorker swaps in a fresh copy of the slice instead
// of mutating elements in place, so a round iterating an old snapshot
// races with nothing — at worst it holds a dead incumbent whose sends
// fail, which the recovery path absorbs.
//
//s2c2:noalloc
func (m *Master) conns() []*workerConn {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.workers
}

// PartitionError attributes one worker's failed partition transfer.
// Distribute wraps every per-worker failure in one (joined with
// errors.Join when several workers fail), so a caller — or a future
// retry/re-stream layer — can extract exactly which transfers broke with
// errors.As instead of parsing message text.
type PartitionError struct {
	Worker int
	Err    error
}

func (e *PartitionError) Error() string {
	return fmt.Sprintf("rpc: partition to worker %d: %v", e.Worker, e.Err)
}

func (e *PartitionError) Unwrap() error { return e.Err }

// ErrDistributeShape reports a partition/worker shape mismatch detected
// before any transfer starts: nothing was shipped, so no *PartitionError
// exists to attribute. Callers can distinguish "bad call" from "broken
// worker" with errors.Is.
var ErrDistributeShape = errors.New("rpc: distribute shape mismatch")

// distributeAll fans one shipment per worker out in parallel and
// aggregates the failures, each attributed to its worker.
//
//s2c2:partition-attrib
func distributeAll(workers []*workerConn, ship func(w int, wc *workerConn) error) error {
	var wg sync.WaitGroup
	errCh := make(chan *PartitionError, len(workers))
	for w, wc := range workers {
		wg.Add(1)
		go func(w int, wc *workerConn) {
			defer wg.Done()
			if err := ship(w, wc); err != nil {
				errCh <- &PartitionError{Worker: w, Err: err}
			}
		}(w, wc)
	}
	wg.Wait()
	close(errCh)
	var errs []error
	for e := range errCh {
		errs = append(errs, e)
	}
	switch len(errs) {
	case 0:
		return nil
	case 1:
		return errs[0]
	default:
		return errors.Join(errs...)
	}
}

// Distribute ships phase's coded partitions of element type T to job j's
// workers (partition w to worker w, all in parallel): EncodedMatrix.Parts,
// GFEncodedMatrix.Parts, or Lagrange shares wrapped as field matrices —
// one partition of a shared shape per worker, else ErrDistributeShape
// before anything ships. Phase numbers are the job's own namespace. Each
// partition streams in ChunkRows-row chunks under a ChunkWindow credit
// window, so transport memory is O(chunk) on both ends, and Distribute
// returns once every worker has stored its partition. Failures name the
// broken workers (*PartitionError, joined across workers); with
// MasterConfig.Retry set, only the failed workers' partitions are
// re-streamed — to a parked spare promoted into the slot when there is
// one — under bounded exponential backoff. Cancelling ctx aborts between
// attempts, mid-backoff included, with the attribution gathered so far.
//
// The partitions are retained (aliased, not copied) so RepairWorkers and
// the retry engine can re-stream them to replacements, and an encoding's
// systematic partitions are views of the caller's data matrix. So the
// master borrows that matrix until the job closes or the master shuts
// down: do not mutate it, or the partitions, meanwhile; after a change,
// re-encode and distribute again.
//
//s2c2:partition-attrib
func Distribute[T coding.Element, M Partition[T]](ctx context.Context, j *Job, phase int, parts []M) error {
	ps := make([]Partition[T], len(parts))
	for i, p := range parts {
		ps[i] = p
	}
	return laneOf[T](j).distribute(ctx, phase, ps)
}

// DistributePartitions is Distribute on the default job. benchmark/ is its
// last caller; ROADMAP 10(a) deletes it once the harness moves.
func (m *Master) DistributePartitions(phase int, enc *coding.EncodedMatrix) error {
	return Distribute(context.Background(), &m.def, phase, enc.Parts)
}

// DistributeGFPartitions is Distribute of field partitions. benchmark/ is
// its last caller; ROADMAP 10(a) deletes it once the harness moves.
func (j *Job) DistributeGFPartitions(phase int, parts []*gf.Matrix) error {
	return Distribute(context.Background(), j, phase, parts)
}

// distribute is Distribute's body for one element type: it checks that
// parts hold one partition of a shared shape per worker, streams them in
// parallel, hands failures to the retry engine, and records the phase —
// its rows on the job, the partitions in the master's re-stream store.
//
//s2c2:partition-attrib
func (l *jobLane[C, T]) distribute(ctx context.Context, phase int, parts []Partition[T]) error {
	var ec C
	label := ec.spec().label
	j, m := l.j, l.j.m
	workers := m.conns()
	if len(parts) != len(workers) {
		return fmt.Errorf("%w: %d %spartitions for %d workers", ErrDistributeShape, len(parts), label, len(workers))
	}
	if len(parts) == 0 {
		return fmt.Errorf("%w: no %spartitions to distribute", ErrDistributeShape, label)
	}
	rows, cols := parts[0].Dims()
	for w, p := range parts {
		if r, c := p.Dims(); r != rows || c != cols {
			return fmt.Errorf("%w: %spartition %d is %dx%d, want %dx%d", ErrDistributeShape, label, w, r, c, rows, cols)
		}
	}
	wp := j.wirePhase(phase)
	err := distributeAll(workers, func(w int, wc *workerConn) error {
		return ship[C](m, wc, wp, parts[w], m.stallTimeout())
	})
	if err != nil {
		err = m.retryPartitions(ctx, err, func(w int, wc *workerConn, stall time.Duration) error {
			return ship[C](m, wc, wp, parts[w], stall)
		})
	}
	if err != nil {
		return err
	}
	j.mu.Lock()
	l.blockRows[phase] = rows
	j.mu.Unlock()
	m.mu.Lock()
	l.retained[wp] = parts
	m.mu.Unlock()
	return nil
}

// ship streams one partition over the connection in chunks under
// credit-based flow control: it serializes the transfer on the
// connection, fences it with a fresh sequence number, and ships rows
// chunk by chunk within the configured credit window. stall bounds each
// credit wait — the configured StallTimeout on the first attempt, the
// retry engine's per-attempt deadline on re-streams.
func ship[C codec[T], T coding.Element](m *Master, wc *workerConn, phase int, part Partition[T], stall time.Duration) error {
	var ec C
	rows, cols := part.Dims()
	chunkRows := m.chunkRowsFor(cols, ec.spec().size)
	data := part.Data()
	// The header's collection may release an encoding's storage
	// (kernel.Own), and a re-stream racing Job.Close may hold its last
	// reference: keep it until the last chunk is sent.
	defer runtime.KeepAlive(part)
	// One transfer at a time per connection: the credit channel is shared,
	// so interleaved transfers would steal each other's acks.
	wc.xfer.Lock()
	defer wc.xfer.Unlock()
	// With the transfer lock held, any credit still buffered belongs to an
	// aborted earlier transfer and is provably dead — drain now so stale
	// credits can never crowd this transfer's fresh ones out of the
	// buffer (readLoop drops credits rather than block when it fills).
drain:
	for {
		select {
		case <-wc.acks:
		default:
			break drain
		}
	}
	// The transfer sequence fences this stream: chunks carry it, acks echo
	// it, and credits from any earlier (possibly aborted) transfer are
	// dropped below instead of inflating this transfer's window or failing
	// it spuriously.
	seq := int(m.xferSeq.Add(1))
	start := &PartitionStart{Phase: phase, Seq: seq, Rows: rows, Cols: cols, ChunkRows: chunkRows}
	if err := sendPartitionStart[C](wc.t, start); err != nil {
		return err
	}
	timer := time.NewTimer(stall)
	defer timer.Stop()
	awaitCredit := func() error {
		timer.Stop()
		timer.Reset(stall)
		for {
			select {
			case ack := <-wc.acks:
				if ack.Phase != phase || ack.Seq != seq {
					continue // stale credit from an aborted earlier transfer
				}
				return nil
			case <-wc.dead:
				return fmt.Errorf("rpc: connection lost mid-transfer")
			case <-m.quit:
				return fmt.Errorf("rpc: master shut down mid-transfer")
			case <-timer.C:
				return fmt.Errorf("rpc: no chunk credit within %v", stall)
			}
		}
	}
	window := m.chunkWindow()
	outstanding := 0
	for lo := 0; lo < rows; lo += chunkRows {
		hi := min(lo+chunkRows, rows)
		for outstanding >= window {
			if err := awaitCredit(); err != nil {
				return err
			}
			outstanding--
		}
		if err := sendPartitionChunk[C](wc.t, phase, seq, lo, hi, data[lo*cols:hi*cols]); err != nil {
			return err
		}
		outstanding++
	}
	// Wait until the worker has stored every chunk: when ship returns, the
	// partition is usable, not merely in flight.
	for outstanding > 0 {
		if err := awaitCredit(); err != nil {
			return err
		}
		outstanding--
	}
	return nil
}

// RoundStats reports a round's real-time measurements.
type RoundStats struct {
	// ResponseTime[w] is worker w's wall-clock response time (0 if it had
	// no assignment or timed out before responding).
	ResponseTime []time.Duration
	// ComputeTime[w] is the kernel time worker w itself reported for the
	// round (the ComputeNanos of its results, summed when reassigned extras
	// add a second result; straggler emulation excluded). ResponseTime[w]
	// − ComputeTime[w] is what the round spent on wire, queueing and
	// emulated delay for that worker.
	ComputeTime []time.Duration
	// AssignedRows[w] mirrors the plan (plus reassignments).
	AssignedRows []int
	// Reassigned counts rows re-executed after the timeout fired.
	Reassigned int
	// TimedOut lists workers whose results were abandoned.
	TimedOut []int
	// Recovery reports the round's failure-recovery activity (zero-valued
	// in a healthy round).
	Recovery RecoveryStats
}

// roundCore is the element-type-independent heart of a round's gather
// state: the round's sched.Ledger (coverage, responders, deaths, the
// timed-out list and the extras of a timeout or a repair) plus what needs
// a clock — response and compute times, the grace window's inputs and the
// round's reusable timers. The generic roundWorkspace embeds it; nothing
// here depends on the element type, so it is compiled once rather than
// per instantiation.
type roundCore struct {
	sched.Ledger
	stats RoundStats

	width     int // values per covered row (1 single-x, w batched)
	respTimes []time.Duration

	// hardTimer and graceTimer are reused across rounds (Go 1.23 timer
	// semantics: Stop+Reset without draining is race-free).
	hardTimer  *time.Timer
	graceTimer *time.Timer
}

// armTimer (re)arms one of the workspace's reusable timers.
//
//s2c2:noalloc
func armTimer(t **time.Timer, d time.Duration) *time.Timer {
	if *t == nil {
		// First round only; the timer is reused ever after.
		//s2c2:waive noalloc
		*t = time.NewTimer(d)
		return *t
	}
	(*t).Stop()
	(*t).Reset(d)
	return *t
}

// stopTimers stops the workspace's timers when a round ends.
//
//s2c2:noalloc
func (c *roundCore) stopTimers() {
	if c.hardTimer != nil {
		c.hardTimer.Stop()
	}
	if c.graceTimer != nil {
		c.graceTimer.Stop()
	}
}

// begin resets the core for a round of n workers over blockRows-row
// partitions with decode threshold k and batch width w.
//
//s2c2:noalloc
func (c *roundCore) begin(n, blockRows, k, w int) {
	c.Reset(n, k, blockRows)
	c.width = w
	c.stats.ResponseTime = kernel.GrowSlice(c.stats.ResponseTime, n)
	clear(c.stats.ResponseTime)
	c.stats.ComputeTime = kernel.GrowSlice(c.stats.ComputeTime, n)
	clear(c.stats.ComputeTime)
	c.stats.AssignedRows = c.AssignedRows
	c.stats.Reassigned = 0
	c.stats.Recovery = RecoveryStats{}
	c.respTimes = c.respTimes[:0]
}

// checkResult validates a result's worker index, range bounds, row width,
// and values length before anything is folded into the round. The length
// check is the batched path's all-lanes-or-nothing dedup guarantee: a
// frame that covers a row contributes either every one of the round's
// width lanes for it or is rejected wholesale, so per-(worker,row)
// coverage marks never stand for partially delivered rows. The arithmetic
// divides rather than multiplies so hostile counts cannot overflow it.
//
//s2c2:noalloc
func (c *roundCore) checkResult(worker int, ranges []coding.Range, rowWidth, numValues int) error {
	if worker < 0 || worker >= c.N {
		return fmt.Errorf("rpc: result from unknown worker %d", worker)
	}
	if rowWidth != c.width {
		return fmt.Errorf("rpc: worker %d result row width %d, round width %d", worker, rowWidth, c.width)
	}
	rows := 0
	for _, rg := range ranges {
		if rg.Lo < 0 || rg.Hi > c.BlockRows || rg.Lo > rg.Hi {
			return fmt.Errorf("rpc: worker %d result range [%d,%d) outside [0,%d)", worker, rg.Lo, rg.Hi, c.BlockRows)
		}
		rows += rg.Hi - rg.Lo
	}
	if numValues/rowWidth != rows || numValues%rowWidth != 0 {
		return fmt.Errorf("rpc: worker %d result carries %d values for %d rows at width %d", worker, numValues, rows, rowWidth)
	}
	return nil
}

// noteResult advances coverage and response bookkeeping for one delivered
// result through the ledger's Deliver. A Partial segment contributes
// coverage but does not count as the worker having responded: response
// time (the §4.3 timeout's and the predictor's input) is recorded only
// when the final segment of a split result lands, so large results are
// not systematically under-measured. The worker-reported compute time
// rides every segment of a result, so it too is taken from the final
// segment only — once per result, summed over the worker's results.
//
//s2c2:noalloc
func (c *roundCore) noteResult(worker int, ranges []coding.Range, elapsed, compute time.Duration, partial bool) {
	if !partial {
		c.stats.ComputeTime[worker] += compute
	}
	if c.Deliver(worker, ranges, !partial) {
		c.stats.ResponseTime[worker] = elapsed
		// Amortized: reset to length 0 each round, capacity retained.
		//s2c2:waive noalloc
		c.respTimes = append(c.respTimes, elapsed)
	}
}

// graceWindow computes the §4.3 grace duration: timeoutFrac times the
// mean response time of the first k responders.
//
//s2c2:noalloc
func (c *roundCore) graceWindow(k int, timeoutFrac float64) time.Duration {
	sortDurations(c.respTimes)
	mean := time.Duration(0)
	for i := 0; i < k && i < len(c.respTimes); i++ {
		mean += c.respTimes[i]
	}
	mean /= time.Duration(k)
	return time.Duration(float64(mean) * timeoutFrac)
}

// copyStats deep-copies the round stats (the non-ReuseRound contract).
//
//s2c2:noalloc-waive
func (c *roundCore) copyStats() *RoundStats {
	recovery := c.stats.Recovery
	recovery.DeadWorkers = append([]int(nil), c.stats.Recovery.DeadWorkers...)
	return &RoundStats{
		ResponseTime: append([]time.Duration(nil), c.stats.ResponseTime...),
		ComputeTime:  append([]time.Duration(nil), c.stats.ComputeTime...),
		AssignedRows: append([]int(nil), c.stats.AssignedRows...),
		Reassigned:   c.stats.Reassigned,
		TimedOut:     append([]int(nil), c.stats.TimedOut...),
		Recovery:     recovery,
	}
}

// roundWorkspace is a job lane's reusable round gather state: the shared
// core plus the partial structs handed to the decoder, the pooled result
// slots the round retains, and the reusable send struct. One warm
// workspace makes the whole steady-state round — sending work, receiving
// results, decoding — allocation-free.
type roundWorkspace[T coding.Element] struct {
	roundCore

	partialSeq []coding.PartialOf[T]
	nPartials  int
	partials   []*coding.PartialOf[T]
	// retained lists the pooled result slots whose slices this round's
	// partials alias; they recycle at the start of the next round.
	retained []*ResultOf[T]
	// workMsg is the reusable master→worker send struct (sends are
	// synchronous, so one slot serves the whole round).
	workMsg WorkOf[T]
}

// begin resets the workspace for a round of n workers over blockRows-row
// partitions with decode threshold k and batch width w.
//
//s2c2:noalloc
func (ws *roundWorkspace[T]) begin(n, blockRows, k, w int) {
	ws.roundCore.begin(n, blockRows, k, w)
	ws.nPartials = 0
	// A worker normally sends one result per Work message, and a round
	// sends at most one original plus one reassignment message per
	// worker, so 2n partial structs cover the common case. Workers whose
	// results exceed their result-row cap split them into several
	// messages — that surplus (like a misbehaving worker's) falls back to
	// allocation, trading the 0-alloc property for bounded frames on
	// multi-gigabyte partitions.
	if cap(ws.partialSeq) < 2*n {
		//s2c2:waive noalloc — capacity growth, first round at this n only
		ws.partialSeq = make([]coding.PartialOf[T], 2*n)
	}
	ws.partialSeq = ws.partialSeq[:2*n]
	ws.partials = ws.partials[:0]
	if cap(ws.retained) < 2*n {
		//s2c2:waive noalloc — capacity growth, first round at this n only
		ws.retained = make([]*ResultOf[T], 0, 2*n)
	}
}

// addResult folds one worker result into the round: it wraps the values
// as a decoder partial and advances per-row coverage through the core.
//
//s2c2:noalloc
func (ws *roundWorkspace[T]) addResult(r *ResultOf[T], elapsed time.Duration) error {
	if err := ws.checkResult(r.Worker, r.Ranges, r.RowWidth, len(r.Values)); err != nil {
		return err
	}
	var p *coding.PartialOf[T]
	if ws.nPartials < len(ws.partialSeq) {
		p = &ws.partialSeq[ws.nPartials]
	} else {
		// Result-split overflow past 2n partials: falls back to the heap
		// (see begin); bounded frames beat the 0-alloc property here.
		//s2c2:waive noalloc
		p = &coding.PartialOf[T]{}
	}
	ws.nPartials++
	p.Worker = r.Worker
	p.RowWidth = ws.width
	p.Ranges = r.Ranges
	p.Values = r.Values
	// Amortized: reset to length 0 each round, capacity retained.
	//s2c2:waive noalloc
	ws.partials = append(ws.partials, p)
	ws.noteResult(r.Worker, r.Ranges, elapsed, time.Duration(r.ComputeNanos), r.Partial)
	return nil
}

// finish hands the gathered round to the caller: workspace-backed when
// reuse (MasterConfig.ReuseRound) is set, deep copies otherwise (the
// pooled receive slots the workspace-backed form aliases are overwritten
// by the next round, so the default mode must not alias them). The
// stats take the ledger's timed-out and dead lists only now: they may
// grow, and so move, until the round ends.
//
//s2c2:noalloc
func (ws *roundWorkspace[T]) finish(reuse bool) ([]*coding.PartialOf[T], *RoundStats, error) {
	ws.stats.TimedOut, ws.stats.Recovery.DeadWorkers = ws.TimedOut, ws.DeadWorkers
	if reuse {
		return ws.partials, &ws.stats, nil
	}
	return copyPartials(ws.partials), ws.copyStats(), nil
}

// copyPartials deep-copies a round's partials for the default contract.
// Deliberately allocating: the copies must survive the next round
// overwriting the pooled slots ws.partials alias; allocation-free rounds
// opt into ReuseRound instead.
//
//s2c2:noalloc-waive
func copyPartials[T coding.Element](src []*coding.PartialOf[T]) []*coding.PartialOf[T] {
	out := make([]*coding.PartialOf[T], len(src))
	for i, p := range src {
		out[i] = &coding.PartialOf[T]{
			Worker:   p.Worker,
			RowWidth: p.RowWidth,
			Ranges:   append([]coding.Range(nil), p.Ranges...),
			Values:   append([]T(nil), p.Values...),
		}
	}
	return out
}

// DefaultJob returns the master's built-in default job (id 0), the job
// single-tenant callers pass to Run and Distribute.
func (m *Master) DefaultJob() *Job { return &m.def }

// PlanRound is the default job's PlanRound. benchmark/ is its last caller;
// ROADMAP 10(a) deletes it once the harness moves.
func (m *Master) PlanRound(s sched.Strategy, speeds []float64) (*sched.Plan, error) {
	return m.def.PlanRound(s, speeds)
}

// PlanRound builds the job's next plan in its own double-buffered plan
// storage: the previous plan stays intact (a draining round may still
// reference it) and concurrent jobs never share a buffer. Steady-state
// planning allocates nothing.
func (j *Job) PlanRound(s sched.Strategy, speeds []float64) (*sched.Plan, error) {
	return j.planBuf.Next(s, speeds)
}

// RoundSpec is one round's input to Run.
type RoundSpec[T coding.Element] struct {
	Iter, Phase int         // round tag; Phase names a Distribute'd dataset
	X           []T         // Width input vectors, x_l at X[l*cols:(l+1)*cols]
	Width       int         // batch width; 0 reads as 1
	Plan        *sched.Plan // each worker's row ranges (Job.PlanRound)
	K           int         // decode threshold: distinct workers per row, in [1, workers]
	TimeoutFrac float64     // §4.3 grace window, as a fraction of the first K's mean response
}

// Run runs one round of job j over its dataset of element type T: it
// sends the plan's assignments and gathers partials until K distinct
// workers cover every row. Once the first K workers respond, the rest get
// TimeoutFrac × those K's mean response time before their pending rows
// are reassigned to finished workers (§4.3); a worker whose connection
// dies mid-round has its undelivered rows folded back into the plan on
// the survivors (RoundStats.Recovery). K outside [1, workers] fails
// before anything is sent.
//
// A round of Width w ships all w input vectors in one work message per
// worker, which sweeps its rows once through the fused multi-x kernel;
// partials carry RowWidth w, row-major, and a row counts as covered only
// when all w of its lanes landed. Exact partials decode bit-exactly, lane
// by lane, through GFEncodedMatrix.DecodeMatVecInto or assemble into
// Lagrange shares via coding.CompleteGFShares.
//
// With MasterConfig.ReuseRound set, the partials and stats alias the
// job's round workspace until its next round of the same element type;
// otherwise they are copies. Cancelling ctx ends the round between
// messages, abandoning stragglers (the next round's stale filter drops
// their late results); StallTimeout bounds the round regardless, and a
// round parked in the MaxConcurrentRounds wait queue observes ctx and
// Shutdown too. One job runs one round at a time; different jobs' rounds
// run concurrently over the shared workers.
//
//s2c2:noalloc
func Run[T coding.Element](ctx context.Context, j *Job, s RoundSpec[T]) ([]*coding.PartialOf[T], *RoundStats, error) {
	w := s.Width
	if w == 0 {
		w = 1
	}
	return laneOf[T](j).runRound(ctx, s.Iter, s.Phase, s.X, w, s.Plan, s.K, s.TimeoutFrac)
}

// RunRound is Run on the default job. benchmark/ is its last caller;
// ROADMAP 10(a) deletes it once the harness moves.
func (m *Master) RunRound(iter, phase int, x []float64, plan *sched.Plan, k int, timeoutFrac float64) ([]*coding.Partial, *RoundStats, error) {
	return Run(context.Background(), &m.def, RoundSpec[float64]{Iter: iter, Phase: phase, X: x, Plan: plan, K: k, TimeoutFrac: timeoutFrac})
}

// RunGFRoundBatch is Run of a field round. benchmark/ is its last caller;
// ROADMAP 10(a) deletes it once the harness moves.
func (j *Job) RunGFRoundBatch(iter, phase int, xs []gf.Elem, w int, plan *sched.Plan, k int, timeoutFrac float64) ([]*coding.GFPartial, *RoundStats, error) {
	return Run(context.Background(), j, RoundSpec[gf.Elem]{Iter: iter, Phase: phase, X: xs, Width: w, Plan: plan, K: k, TimeoutFrac: timeoutFrac})
}

// checkBatchArgs validates a round's batch width against the
// concatenated input length (width 1 is the single-x round).
func checkBatchArgs(w, xsLen int) error {
	if w < 1 || w > maxBatchWidth {
		return fmt.Errorf("rpc: batch width %d outside [1,%d]", w, maxBatchWidth)
	}
	if xsLen%w != 0 {
		return fmt.Errorf("rpc: batched input length %d not divisible by width %d", xsLen, w)
	}
	return nil
}

// runRound is Run's round engine for one element type: send the plan,
// gather to coverage k under the §4.3 grace timeout and reassignment,
// fold dead workers' rows back in.
//
//s2c2:noalloc
func (l *jobLane[C, T]) runRound(ctx context.Context, iter, phase int, x []T, w int, plan *sched.Plan, k int, timeoutFrac float64) ([]*coding.PartialOf[T], *RoundStats, error) {
	if err := checkBatchArgs(w, len(x)); err != nil {
		return nil, nil, err
	}
	var ec C
	label := ec.spec().label
	j, m := l.j, l.j.m
	// A threshold outside [1, n] could never be met: k < 1 would divide
	// the grace window by zero or never plan extras, k > n would wait out
	// the stall timeout.
	if n := len(m.conns()); k < 1 || k > n {
		return nil, nil, fmt.Errorf("rpc: decode threshold k=%d outside [1,%d]", k, n)
	}
	j.mu.Lock()
	blockRows := l.blockRows[phase]
	j.mu.Unlock()
	if blockRows == 0 {
		return nil, nil, fmt.Errorf("rpc: phase %d has no distributed %spartitions", phase, label)
	}
	wp := j.wirePhase(phase)
	if err := m.acquireRoundSlot(ctx, j); err != nil {
		return nil, nil, err
	}
	defer m.releaseRoundSlot()
	workers := m.conns()
	n := len(workers)
	ws := &l.round
	l.recycle()
	ws.begin(n, blockRows, k, w)
	defer ws.stopTimers()
	start := time.Now()
	active := 0
	for wk, wc := range workers {
		ranges := plan.Assignments[wk]
		if coding.TotalRows(ranges) == 0 {
			continue
		}
		if !l.send(wc, wk, iter, wp, x, w, ranges) {
			// A send failure is a worker death, not a round abort: fold its
			// rows back into the plan once every healthy send is out
			// (repairing mid-loop would misplan — later workers'
			// assignments are not marked yet).
			continue
		}
		active++
	}
	if len(ws.DeadWorkers) > 0 {
		if err := l.repair(workers, iter, wp, x, w); err != nil {
			return nil, nil, err
		}
	} else if active < k {
		return nil, nil, fmt.Errorf("rpc: plan activates %d workers, decoding needs %d", active, k)
	}

	// Phase 1 waits for the first k responders (coded computing cannot
	// decode with fewer). Phase 2 then arms the grace window — timeoutFrac
	// × mean response of the first k — and, when it expires, reassigns
	// pending coverage to responders; the round keeps collecting until
	// coverage completes.
	hard := armTimer(&ws.hardTimer, m.stallTimeout())
	var grace <-chan time.Time // nil (blocking) until phase 2
	for ws.NResponded < k || !ws.Covered() {
		if grace == nil && ws.NResponded >= k {
			grace = armTimer(&ws.graceTimer, ws.graceWindow(k, timeoutFrac)).C
		}
		select {
		case r := <-l.results:
			if r.Iter != iter || r.Phase != wp {
				l.putResult(r) // stale result from an abandoned round
				continue
			}
			if err := ws.addResult(r, time.Since(start)); err != nil {
				return nil, nil, err
			}
			// Amortized: recycled and reset each round, capacity retained.
			//s2c2:waive noalloc
			ws.retained = append(ws.retained, r)
		case err := <-j.errs:
			we, ok := err.(*WorkerError)
			if !ok {
				return nil, nil, err
			}
			if we.Worker >= n || workers[we.Worker] != we.conn {
				continue // stale: a conn no longer serving this round's slots
			}
			ws.NoteDead(we.Worker)
			if err := l.repair(workers, iter, wp, x, w); err != nil {
				return nil, nil, err
			}
		case <-m.quit:
			return nil, nil, fmt.Errorf("rpc: master shut down during %sround (%d,%d)", label, iter, phase)
		case <-ctx.Done():
			return nil, nil, fmt.Errorf("rpc: %sround (%d,%d) canceled: %w", label, iter, phase, ctx.Err())
		case <-grace:
			// Timeout fired: reassign pending coverage to responders
			// (reassigned results arrive tagged with the same iter/phase,
			// so the same collection loop finishes the round). Reassigned
			// rows are recomputed at the round's batch width, every lane. A
			// send that fails here is a death, absorbed by the repair
			// planner.
			if err := ws.PlanExtras(nil); err != nil {
				return nil, nil, fmt.Errorf("rpc: %w", err)
			}
			rows, lost := l.sendExtras(workers, iter, wp, x, w)
			ws.stats.Reassigned += rows
			if lost {
				if err := l.repair(workers, iter, wp, x, w); err != nil {
					return nil, nil, err
				}
			}
		case <-hard.C:
			return nil, nil, ws.stallError(fmt.Sprintf("%sround (%d,%d) stalled", label, iter, phase))
		}
	}
	m.noteRoundOutcome(&ws.roundCore, workers)
	return ws.finish(m.cfg.ReuseRound)
}

// send ships one assignment to worker wk through the workspace's reusable
// send struct and assigns it the rows in the ledger; a failed send notes
// the worker dead and reports false.
//
//s2c2:noalloc
func (l *jobLane[C, T]) send(wc *workerConn, wk, iter, phase int, x []T, bw int, ranges []coding.Range) bool {
	ws := &l.round
	ws.workMsg = WorkOf[T]{Job: l.j.id, Iter: iter, Phase: phase, W: bw, X: x, Ranges: ranges}
	if err := wc.t.sendWork(&ws.workMsg); err != nil {
		ws.NoteDead(wk)
		return false
	}
	ws.Assign(wk, ranges)
	return true
}

// sendExtras sends the extra ranges the ledger's PlanExtras or PlanRepair
// routed, and send assigns each delivered worker its rows. It returns the
// rows sent and whether a send failed — that worker is noted dead and its
// extras skipped, for the repair planner to re-cover.
//
//s2c2:noalloc
func (l *jobLane[C, T]) sendExtras(workers []*workerConn, iter, phase int, x []T, bw int) (rows int, lost bool) {
	ws := &l.round
	for w, ranges := range ws.Routed.Ranges {
		if len(ranges) == 0 {
			continue
		}
		if !l.send(workers[w], w, iter, phase, x, bw, ranges) {
			lost = true
			continue
		}
		rows += ws.Routed.Extra[w]
	}
	return rows, lost
}

// sortDurations is an ascending insertion sort (short slices, no closure
// allocation).
//
//s2c2:noalloc
func sortDurations(ds []time.Duration) {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
}

// Shutdown tells all workers to exit, closes every connection (handshakes
// in flight included) and the listener, and waits for every goroutine the
// master started (accept loop, handshakes, read loops, heartbeat) to
// drain. It is
// idempotent and safe to call while reads are in flight: readers observe
// the closing flag and exit silently instead of reporting the torn
// connection as a worker failure.
func (m *Master) Shutdown() {
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		return
	}
	m.closing = true
	workers := append([]*workerConn(nil), m.workers...)
	pending := m.pending
	m.pending = nil
	m.mu.Unlock()
	m.cancel() // unblock readers parked on a full results channel, close handshakes in flight
	for _, wc := range workers {
		wc.t.sendShutdown() //nolint:errcheck // best effort
		wc.t.close()
	}
	for _, wc := range pending {
		// A parked spare is told to exit too: a bare close reads as a lost
		// link, and a rejoining worker would redial the departed master.
		wc.t.sendShutdown() //nolint:errcheck // best effort
		wc.t.close()        // its read loop sees closing and exits
	}
	m.ln.Close()
	m.wg.Wait()
	// Release the datasets. The Master embeds sync.Pools, and the runtime's
	// pool registry keeps such a value reachable for one more GC cycle
	// after its last user reference is gone; without this the retained
	// partitions — and, through the systematic views, the caller's data
	// matrices — would ride along.
	m.mu.Lock()
	clear(m.parts)
	clear(m.gfParts)
	m.mu.Unlock()
	m.jobsMu.RLock()
	for _, j := range m.jobs {
		j.forgetPhases()
	}
	m.jobsMu.RUnlock()
}
