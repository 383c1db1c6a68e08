package rpc

import (
	"context"
	"fmt"
	"sync"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/sched"
)

// This file is the multi-job serving layer: one master holds any number
// of jobs, each with its own plan buffer and, per element type (float64
// and GF), its own lane of encoded datasets, result channel and round
// workspace, all multiplexed over the same worker connections. Job 0 is
// the built-in default job (Master.DefaultJob). Rounds across jobs run
// concurrently: the per-worker readLoops demux results by (job, iter,
// phase) to the owning job's channels, so worker compute for one job
// overlaps master decode for another. A wait queue in front of the round
// path (MaxConcurrentRounds, PriorityPolicy) bounds that concurrency for
// co-tenancy.

// jobPhaseBase is the floor of the wire-phase namespace handed to
// non-default jobs. The default job's user phases pass through verbatim,
// so any user phase below this bound can never collide with an allocated
// one.
const jobPhaseBase = 1 << 20

// JobConfig configures one served job.
type JobConfig struct {
	// Exec pins this job's master-side compute budget (decode pool and
	// fan-out) for co-tenancy, overriding the master's Exec. The zero
	// value inherits MasterConfig.Exec. Drivers read it via Job.Exec and
	// wire it to the codecs they pair with the job.
	Exec kernel.Exec
	// Priority orders this job's parked rounds for priority-aware
	// policies (e.g. HighestPriority). FCFS ignores it.
	Priority int
}

// Job is one tenant of a serving master: a private phase namespace of
// encoded datasets plus the round machinery to compute over them. Pass it
// to Distribute to ship a dataset and to Run to compute over one; a
// single-tenant master's job is its built-in default job (DefaultJob,
// id 0).
//
// Rounds of one Job must not run concurrently with each other — one job
// runs one round at a time, exactly like a pre-serving master. Different
// jobs' rounds may (and should) run concurrently.
type Job struct {
	m   *Master
	id  int
	cfg JobConfig

	mu sync.Mutex // guards phaseMap and both lanes' blockRows
	// phaseMap translates this job's user phases to master-wide wire
	// phases (nil for the default job, whose mapping is identity).
	phaseMap map[int]int
	// float and exact are the job's float64 and GF(2³¹−1) datasets and
	// rounds; one dataset of each type may live under the same phase.
	float jobLane[floatCodec, float64]
	exact jobLane[gfCodec, gf.Elem]
	// errs receives worker deaths from the shared readLoops.
	errs    chan error
	planBuf sched.PlanBuffer
}

// jobLane is one element type's share of a job: its distributed phases,
// the demuxed result channel the shared readLoops feed, the pooled
// receive slots, and the round workspace.
type jobLane[C codec[T], T coding.Element] struct {
	j *Job
	// blockRows records each distributed phase's partition rows, keyed by
	// the job's own (user) phase numbers.
	blockRows map[int]int
	// retained is the master's re-stream store for this element type
	// (Master.parts or Master.gfParts), shared by every job.
	retained map[int][]Partition[T]
	results  chan *ResultOf[T]
	pool     sync.Pool // *ResultOf[T] receive slots recycled across rounds
	round    roundWorkspace[T]
}

func (l *jobLane[C, T]) init(j *Job, retained map[int][]Partition[T]) {
	l.j = j
	l.blockRows = map[int]int{}
	l.retained = retained
	// Deep enough that a full cluster's round responses never block a
	// readLoop in steady state.
	l.results = make(chan *ResultOf[T], 1024)
}

// deliver hands one decoded result to the lane's round: the pooled slot
// takes the decoded message (slices included) and the message slot
// inherits the pooled capacity for the next decode — no copying, no
// allocation. It reports false when the master shut down instead.
//
//s2c2:noalloc
func (l *jobLane[C, T]) deliver(msg *ResultOf[T], worker int, quit <-chan struct{}) bool {
	r := fromPool[ResultOf[T]](&l.pool)
	*r, *msg = *msg, *r
	r.Worker = worker
	select {
	case l.results <- r:
		return true
	case <-quit:
		return false
	}
}

//s2c2:recycler
func (l *jobLane[C, T]) putResult(r *ResultOf[T]) { l.pool.Put(r) }

// recycle returns the previous round's pooled result slots to the receive
// pool. Callers of the previous round have released its partials by
// contract (ReuseRound) or received copies (default), so the slots are
// free for the readLoops to decode into again.
//
//s2c2:noalloc
func (l *jobLane[C, T]) recycle() {
	ws := &l.round
	for i, r := range ws.retained {
		l.putResult(r)
		ws.retained[i] = nil
	}
	ws.retained = ws.retained[:0]
}

// lane is a job lane with its codec parameter hidden.
type lane[T coding.Element] interface {
	runRound(ctx context.Context, iter, phase int, x []T, w int, plan *sched.Plan, k int, timeoutFrac float64) ([]*coding.PartialOf[T], *RoundStats, error)
	distribute(ctx context.Context, phase int, parts []Partition[T]) error
}

// laneOf picks j's lane for element type T: exactly one of the float and
// exact lanes implements lane[T].
//
//s2c2:noalloc
func laneOf[T coding.Element](j *Job) lane[T] {
	if l, ok := any(&j.float).(lane[T]); ok {
		return l
	}
	return any(&j.exact).(lane[T])
}

// initJob readies a (possibly embedded) Job in place.
func initJob(j *Job, m *Master, id int, cfg JobConfig) {
	j.m = m
	j.id = id
	j.cfg = cfg
	if id != 0 {
		j.phaseMap = map[int]int{}
	}
	j.float.init(j, m.parts)
	j.exact.init(j, m.gfParts)
	j.errs = make(chan error, 16)
}

// OpenJob registers a new job with the master. The job sees the same
// worker pool as every other; its phase numbers are private, so two jobs'
// phase 0 datasets coexist on the workers. Close the job when done to
// release its retained partitions.
func (m *Master) OpenJob(cfg JobConfig) *Job {
	m.jobsMu.Lock()
	m.jobSeq++
	j := &Job{}
	initJob(j, m, m.jobSeq, cfg)
	m.jobs[j.id] = j
	m.jobsMu.Unlock()
	return j
}

// ID returns the job's id (0 for the master's built-in default job).
func (j *Job) ID() int { return j.id }

// Exec returns the job's compute budget: its own JobConfig.Exec when set,
// else the master's. Drivers pass it to the codecs they pair with the job
// so co-tenant decodes stay within their lanes.
func (j *Job) Exec() kernel.Exec {
	if j.cfg.Exec != (kernel.Exec{}) {
		return j.cfg.Exec
	}
	return j.m.cfg.Exec
}

// Close deregisters the job, drops its retained partitions from the
// master's re-stream store, and tells every worker to free the partitions
// it holds for the job (one PartitionDrop frame per wire phase). Results
// still in flight for the job are discarded by the readLoops, and a later
// round on the closed job fails as one on an undistributed phase does.
// Closing the default job is a no-op — it lives as long as the master.
func (j *Job) Close() {
	if j.id == 0 {
		return
	}
	m := j.m
	m.jobsMu.Lock()
	delete(m.jobs, j.id)
	m.jobsMu.Unlock()
	wps := j.forgetPhases()
	m.mu.Lock()
	for _, wp := range wps {
		delete(m.parts, wp)
		delete(m.gfParts, wp)
	}
	m.mu.Unlock()
	for _, wc := range m.conns() {
		// Behind any transfer in flight on the connection, so the drop can
		// never land between a re-stream's chunks.
		wc.xfer.Lock()
		for _, wp := range wps {
			if wc.t.sendPartitionDrop(wp) != nil {
				break // dead connection: the worker's memory goes with it
			}
		}
		wc.xfer.Unlock()
	}
}

// forgetPhases clears the job's record of distributed phases and returns
// the wire phases it had allocated.
func (j *Job) forgetPhases() []int {
	j.mu.Lock()
	defer j.mu.Unlock()
	wps := make([]int, 0, len(j.phaseMap))
	for _, wp := range j.phaseMap {
		wps = append(wps, wp)
	}
	clear(j.float.blockRows)
	clear(j.exact.blockRows)
	clear(j.phaseMap)
	return wps
}

// wirePhase translates one of the job's user phases to the master-wide
// wire phase that names the dataset on the workers. The default job is
// identity, while other jobs allocate from the shared namespace above
// jobPhaseBase on first use.
//
//s2c2:noalloc
func (j *Job) wirePhase(phase int) int {
	if j.id == 0 {
		return phase
	}
	j.mu.Lock()
	wp, ok := j.phaseMap[phase]
	if !ok {
		wp = int(j.m.wireSeq.Add(1))
		j.phaseMap[phase] = wp
	}
	j.mu.Unlock()
	return wp
}

// jobFor routes a result frame's job tag to the owning job, or nil when
// the job is closed or was never opened (the frame is dropped). The
// default job skips the registry lock: it always exists, and single-job
// traffic must not contend with OpenJob/Close.
//
//s2c2:noalloc
func (m *Master) jobFor(id int) *Job {
	if id == 0 {
		return &m.def
	}
	m.jobsMu.RLock()
	j := m.jobs[id]
	m.jobsMu.RUnlock()
	return j
}

// broadcastWorkerError announces a worker death to every job's error
// channel: any job's round may hold assignments on the dead connection,
// and each must fold its own rows back. Sends never block — a job not in
// a round has nobody draining its channel, and a 16-deep buffer already
// holds more deaths than a round can act on.
func (m *Master) broadcastWorkerError(we *WorkerError) {
	m.jobsMu.RLock()
	for _, j := range m.jobs {
		select {
		case j.errs <- we:
		default:
		}
	}
	m.jobsMu.RUnlock()
}

// JobTicket is one parked round as a PriorityPolicy sees it.
type JobTicket struct {
	// Job is the owning job's id (0 = the master's default job).
	Job int
	// Priority is the owning job's JobConfig.Priority.
	Priority int
	// Seq is the admission order: lower parked earlier.
	Seq int
}

// PriorityPolicy picks which parked round runs when a concurrency slot
// frees (MaxConcurrentRounds). Implementations must be safe for
// concurrent use by multiple goroutines.
type PriorityPolicy interface {
	// Pick returns the index into queued of the round to run next. The
	// slice is admission-ordered (Seq ascending) and valid only for the
	// duration of the call; out-of-range returns fall back to index 0.
	Pick(queued []JobTicket) int
}

// FCFS returns the first-come-first-served policy: an identity op over
// the admission-ordered queue, preserving the pre-serving behavior. It is
// what a nil MasterConfig.Policy selects.
func FCFS() PriorityPolicy { return fcfsPolicy{} }

type fcfsPolicy struct{}

func (fcfsPolicy) Pick([]JobTicket) int { return 0 }

// HighestPriority returns a policy that runs the parked round whose job
// has the largest JobConfig.Priority, FCFS among equals.
func HighestPriority() PriorityPolicy { return highestPriority{} }

type highestPriority struct{}

func (highestPriority) Pick(queued []JobTicket) int {
	best := 0
	for i := range queued {
		if queued[i].Priority > queued[best].Priority {
			best = i
		}
	}
	return best
}

// roundTicket parks one round in the wait queue until a slot frees.
type roundTicket struct {
	j   *Job
	seq int
	// ready closes when releaseRoundSlot hands this ticket the freed slot
	// (the slot transfers: activeRounds is not decremented).
	ready chan struct{}
}

// acquireRoundSlot admits a round under the MaxConcurrentRounds cap,
// parking it in the wait queue when the cap is reached. Queued rounds
// observe caller cancellation and master shutdown. The un-queued fast
// path — every round, with the cap unset or un-contended — does not
// allocate.
//
//s2c2:noalloc
func (m *Master) acquireRoundSlot(ctx context.Context, j *Job) error {
	if m.cfg.MaxConcurrentRounds <= 0 {
		return nil
	}
	m.qmu.Lock()
	if m.activeRounds < m.cfg.MaxConcurrentRounds && len(m.waitq) == 0 {
		m.activeRounds++
		m.qmu.Unlock()
		return nil
	}
	// Parked path: a queued round is off the steady-state hot path by
	// definition, so the ticket may allocate.
	//s2c2:waive noalloc
	t := &roundTicket{j: j, seq: m.ticketSeq, ready: make(chan struct{})}
	m.ticketSeq++
	//s2c2:waive noalloc
	m.waitq = append(m.waitq, t)
	m.qmu.Unlock()
	select {
	case <-t.ready:
		return nil
	case <-ctx.Done():
		m.cancelTicket(t)
		return fmt.Errorf("rpc: job %d round canceled while queued: %w", j.id, ctx.Err())
	case <-m.quit:
		m.cancelTicket(t)
		return fmt.Errorf("rpc: master shut down while job %d round was queued", j.id)
	}
}

// releaseRoundSlot frees one concurrency slot: the policy's pick among
// the parked rounds inherits it directly (activeRounds unchanged — the
// slot transfers), or the active count drops when nothing is parked.
//
//s2c2:noalloc
func (m *Master) releaseRoundSlot() {
	if m.cfg.MaxConcurrentRounds <= 0 {
		return
	}
	m.qmu.Lock()
	if i := m.pickLocked(); i >= 0 {
		t := m.waitq[i]
		copy(m.waitq[i:], m.waitq[i+1:])
		m.waitq[len(m.waitq)-1] = nil
		m.waitq = m.waitq[:len(m.waitq)-1]
		close(t.ready)
		m.qmu.Unlock()
		return
	}
	m.activeRounds--
	m.qmu.Unlock()
}

// cancelTicket withdraws a parked round after its caller gave up (ctx or
// shutdown). If the grant raced the cancellation — the ticket is no
// longer queued because releaseRoundSlot already handed it the slot — the
// slot is passed on instead of leaking.
func (m *Master) cancelTicket(t *roundTicket) {
	m.qmu.Lock()
	for i, q := range m.waitq {
		if q == t {
			// In-place removal: the append target is the slice's own
			// backing array and strictly shrinks.
			//s2c2:waive noalloc
			m.waitq = append(m.waitq[:i], m.waitq[i+1:]...)
			m.qmu.Unlock()
			return
		}
	}
	m.qmu.Unlock()
	m.releaseRoundSlot()
}

// pickLocked selects the waitq index to grant the freed slot, -1 when
// nothing is parked. Called with qmu held. A nil policy is FCFS without
// even building the ticket view.
//
//s2c2:noalloc
func (m *Master) pickLocked() int {
	n := len(m.waitq)
	if n == 0 {
		return -1
	}
	if m.cfg.Policy == nil || n == 1 {
		return 0
	}
	// Amortized: the view buffer is reused across picks.
	m.ticketView = m.ticketView[:0]
	for _, t := range m.waitq {
		//s2c2:waive noalloc
		m.ticketView = append(m.ticketView, JobTicket{Job: t.j.id, Priority: t.j.cfg.Priority, Seq: t.seq})
	}
	i := m.cfg.Policy.Pick(m.ticketView)
	if i < 0 || i >= n {
		i = 0
	}
	return i
}

// Compile-time interface checks for the built-in policies.
var (
	_ PriorityPolicy = fcfsPolicy{}
	_ PriorityPolicy = highestPriority{}
)
