package rpc

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
)

// This file is the elastic-membership and failure-recovery layer: the
// distribute-path retry engine (re-stream only the lost worker's
// partition, to a warm spare when one is parked), the cluster lifecycle
// (the spare pool the accept loop fills, heartbeat liveness watch,
// eviction on repeated round failures), and the round repair loop that
// folds a dead worker's rows back into the round (planned by the
// ledger's PlanRepair) instead of stalling to the timeout. The (n,k)
// coding slack the paper spends on stragglers within a round becomes
// cluster headroom across rounds.

// RetryConfig bounds the distribute-path retry engine.
type RetryConfig struct {
	// MaxAttempts is the total number of times a partition transfer may be
	// tried (first attempt included). Values below 2 disable retries.
	MaxAttempts int
	// BaseBackoff is the delay before the second attempt; it doubles per
	// attempt up to MaxBackoff. Zero selects 50ms.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential backoff. Zero selects 2s.
	MaxBackoff time.Duration
	// AttemptTimeout bounds each retry attempt's credit waits (the
	// per-attempt deadline). Zero falls back to StallTimeout.
	AttemptTimeout time.Duration
}

func (r RetryConfig) enabled() bool { return r.MaxAttempts > 1 }

func (r RetryConfig) base() time.Duration {
	if r.BaseBackoff > 0 {
		return r.BaseBackoff
	}
	return 50 * time.Millisecond
}

func (r RetryConfig) cap() time.Duration {
	if r.MaxBackoff > 0 {
		return r.MaxBackoff
	}
	return 2 * time.Second
}

//s2c2:noalloc
func (m *Master) attemptTimeout() time.Duration {
	if m.cfg.Retry.AttemptTimeout > 0 {
		return m.cfg.Retry.AttemptTimeout
	}
	return m.stallTimeout()
}

// RecoveryStats counts failure-recovery activity. It appears twice: in
// RoundStats.Recovery scoped to one round (the autoscaler signals of
// ROADMAP item 2), and as the master's lifetime totals (RecoveryTotals),
// which also cover distribute-path retries that happen outside any round.
type RecoveryStats struct {
	// Retries counts re-stream attempts on the distribute path.
	Retries int
	// ReStreams counts partitions successfully re-streamed to a worker
	// after a failure (retry engine and RepairWorkers catch-ups).
	ReStreams int
	// Evictions counts connections deliberately torn down: heartbeat
	// loss or the EvictAfter round-failure policy.
	Evictions int
	// ReplacementAdmits counts spares promoted into worker slots.
	ReplacementAdmits int
	// DeadWorkers lists the worker slots whose connections died during
	// the round (round scope only; nil in the lifetime totals).
	DeadWorkers []int
	// RecoveredRows counts row assignments folded back into the plan
	// after mid-round worker deaths.
	RecoveredRows int
	// AcceptFailures counts Accept errors in the master's accept loop
	// (lifetime totals only; nil-equivalent zero in round scope). A
	// climbing counter with no ReplacementAdmits is the signature of a
	// dead or misconfigured listener.
	AcceptFailures int
}

// WorkerError attributes a connection failure to a worker slot. Read
// loops report deaths with it so the round path can fold the worker's
// rows back into the plan; anything else on the error channel stays
// fatal to the round.
type WorkerError struct {
	Worker int
	Err    error
	// conn identifies which connection died: a slot can be re-served by a
	// replacement, and a late report about the replaced corpse must not
	// kill the successor (the round path compares conn against its
	// snapshot before acting).
	conn *workerConn
}

func (e *WorkerError) Error() string { return fmt.Sprintf("rpc: worker %d: %v", e.Worker, e.Err) }

func (e *WorkerError) Unwrap() error { return e.Err }

// errLivenessLost is the eviction reason the heartbeat watcher attributes
// to a silent connection.
var errLivenessLost = errors.New("rpc: no pong within the heartbeat miss budget")

// collectPartitionErrors walks a distribute error (one *PartitionError or
// an errors.Join of several) and indexes the per-worker attributions.
func collectPartitionErrors(err error, out map[int]*PartitionError) {
	switch e := err.(type) {
	case nil:
	case *PartitionError:
		out[e.Worker] = e
	case interface{ Unwrap() []error }:
		for _, sub := range e.Unwrap() {
			collectPartitionErrors(sub, out)
		}
	}
}

// retryPartitions drives the distribute-path retry engine: it extracts
// the failed workers from err's *PartitionError attributions and retries
// only their partitions under bounded exponential backoff, drawing a warm
// spare into any slot whose connection died (the replacement is first
// caught up on every previously retained phase). Attribution is preserved
// through the loop: whatever still fails after the last attempt is
// returned as the surviving *PartitionErrors — wrapped, never flattened —
// so callers and the partitionerr analyzer see the same per-worker
// contract the first attempt has. The backoff sleeps watch ctx alongside
// the master's quit channel, so a cancelled caller returns promptly with
// the attributions from the attempts already made.
//
//s2c2:partition-attrib
func (m *Master) retryPartitions(ctx context.Context, err error, ship func(w int, wc *workerConn, stall time.Duration) error) error {
	if !m.cfg.Retry.enabled() {
		return err
	}
	failed := map[int]*PartitionError{}
	collectPartitionErrors(err, failed)
	if len(failed) == 0 {
		return err // not per-worker attributed (shape error): nothing to retry
	}
	backoff := m.cfg.Retry.base()
	for attempt := 2; attempt <= m.cfg.Retry.MaxAttempts && len(failed) > 0; attempt++ {
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return err
		case <-m.quit:
			return err
		}
		if backoff *= 2; backoff > m.cfg.Retry.cap() {
			backoff = m.cfg.Retry.cap()
		}
		for w := range failed {
			wc, replaced := m.replaceWorker(w)
			if wc == nil {
				continue // slot dead and no spare parked yet; next attempt
			}
			m.bumpTotals(1, 0, 0)
			if replaced {
				// A promoted spare holds nothing: catch it up on every
				// phase retained so far before shipping the failed one.
				if cerr := m.streamRetained(w, wc); cerr != nil {
					failed[w] = &PartitionError{Worker: w, Err: cerr}
					continue
				}
			}
			if serr := ship(w, wc, m.attemptTimeout()); serr != nil {
				failed[w] = &PartitionError{Worker: w, Err: serr}
				continue
			}
			delete(failed, w)
			m.bumpTotals(0, 1, 0)
		}
	}
	if len(failed) == 0 {
		return nil
	}
	// Deterministic order for the surviving attributions.
	slots := make([]int, 0, len(failed))
	for w := range failed {
		slots = append(slots, w)
	}
	sort.Ints(slots)
	if len(slots) == 1 {
		return failed[slots[0]]
	}
	errs := make([]error, 0, len(slots))
	for _, w := range slots {
		errs = append(errs, failed[w])
	}
	return errors.Join(errs...)
}

// replaceWorker returns a live connection for worker slot w: the
// incumbent when it is still alive (retry the same conn), else a warm
// spare promoted into the slot — the corpse is silenced and closed, the
// workers slice is swapped copy-on-write so conns() snapshots stay
// immutable, and the spare's read loop starts attributing to the slot via
// the atomic id swap. Returns nil when the slot is dead and no spare is
// parked.
func (m *Master) replaceWorker(w int) (wc *workerConn, replaced bool) {
	m.mu.Lock()
	if w < 0 || w >= len(m.workers) {
		m.mu.Unlock()
		return nil, false
	}
	cur := m.workers[w]
	m.mu.Unlock()
	select {
	case <-cur.dead:
	default:
		return cur, false // incumbent alive: retry the same conn
	}
	spare := m.popPending()
	if spare == nil {
		return nil, false
	}
	cur.evicted.Store(true) // already dead; silence any straggling report
	cur.t.close()
	m.mu.Lock()
	if m.closing {
		m.mu.Unlock()
		spare.t.close()
		return nil, false
	}
	fresh := make([]*workerConn, len(m.workers))
	copy(fresh, m.workers)
	fresh[w] = spare
	m.workers = fresh
	if w < len(m.failStreak) {
		m.failStreak[w] = 0
	}
	m.totals.ReplacementAdmits++
	m.mu.Unlock()
	spare.id.Store(int64(w))
	return spare, true
}

// streamRetained ships every retained partition phase's slot-w partition
// to a (typically just-promoted) connection, so a replacement joins with
// the same loaded state its predecessor had. Phases ship in ascending
// order; the first failure aborts with that phase's attribution.
//
//s2c2:partition-attrib
func (m *Master) streamRetained(w int, wc *workerConn) error {
	if err := restream[floatCodec](m, w, wc, m.parts); err != nil {
		return err
	}
	return restream[gfCodec](m, w, wc, m.gfParts)
}

// restream is streamRetained for one element type's store.
//
//s2c2:partition-attrib
func restream[C codec[T], T coding.Element](m *Master, w int, wc *workerConn, retained map[int][]Partition[T]) error {
	var ec C
	m.mu.Lock()
	phases := make([]int, 0, len(retained))
	for p := range retained {
		phases = append(phases, p)
	}
	m.mu.Unlock()
	sort.Ints(phases)
	for _, p := range phases {
		m.mu.Lock()
		parts := retained[p]
		m.mu.Unlock()
		if w >= len(parts) {
			continue
		}
		if err := ship[C](m, wc, p, parts[w], m.attemptTimeout()); err != nil {
			return &PartitionError{Worker: w, Err: fmt.Errorf("re-stream %sphase %d: %w", ec.spec().label, p, err)}
		}
		m.bumpTotals(0, 1, 0)
	}
	return nil
}

// RepairWorkers promotes warm spares into every dead worker slot,
// re-streaming all retained partition phases to each replacement. It
// returns the number of slots repaired; slots with no spare parked are
// left dead (call again once new workers have joined — the accept loop
// keeps the pool filling in the background). Rounds route around dead
// slots on their own, so repair is a capacity restore between rounds, not
// a correctness requirement — until fewer than k slots are alive, at
// which point rounds fail and repair is the way back.
func (m *Master) RepairWorkers() (int, error) {
	repaired := 0
	for _, w := range m.DeadWorkers() {
		wc, replaced := m.replaceWorker(w)
		if wc == nil || !replaced {
			continue // no spare for this slot (or it revived); next call
		}
		if err := m.streamRetained(w, wc); err != nil {
			return repaired, err
		}
		repaired++
	}
	return repaired, nil
}

// DeadWorkers returns the worker slots whose connections are down.
func (m *Master) DeadWorkers() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	var dead []int
	for w, wc := range m.workers {
		select {
		case <-wc.dead:
			dead = append(dead, w)
		default:
		}
	}
	return dead
}

// Spares returns the number of live parked spare connections.
func (m *Master) Spares() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	alive := 0
	for _, wc := range m.pending {
		select {
		case <-wc.dead:
		default:
			alive++
		}
	}
	return alive
}

// RecoveryTotals returns the master's lifetime recovery counters across
// all rounds and distribute calls. DeadWorkers is nil here — per-round
// deaths are reported in RoundStats.Recovery.
func (m *Master) RecoveryTotals() RecoveryStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totals
}

// bumpTotals accumulates lifetime retry/re-stream/admit counters.
//
//s2c2:noalloc
func (m *Master) bumpTotals(retries, restreams, evictions int) {
	m.mu.Lock()
	m.totals.Retries += retries
	m.totals.ReStreams += restreams
	m.totals.Evictions += evictions
	m.mu.Unlock()
}

// dropParked removes a connection from the spare pool, if parked there,
// and closes it. The read loop calls it the moment a parked connection
// errors, and evictConn on every eviction, so the pool never hands out a
// corpse (popPending double-checks regardless).
func (m *Master) dropParked(wc *workerConn) {
	m.mu.Lock()
	for i, p := range m.pending {
		if p == wc {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			break
		}
	}
	m.mu.Unlock()
	wc.t.close()
}

// evictConn deliberately tears a connection down for reason: the evicted
// flag keeps its read loop from reporting the teardown as a spontaneous
// failure, and a registered worker's eviction is announced to every job's
// error channel as a *WorkerError so any round in flight repairs
// immediately instead of waiting out its timers. The eviction is tallied
// before the connection closes, so RecoveryTotals counts it by the time
// Spares or DeadWorkers show it; an evicted spare leaves the pool.
func (m *Master) evictConn(wc *workerConn, reason error) {
	if wc.evicted.Swap(true) {
		return // already being torn down
	}
	m.bumpTotals(0, 0, 1)
	m.dropParked(wc)
	if id := int(wc.id.Load()); id >= 0 {
		m.broadcastWorkerError(&WorkerError{Worker: id, Err: reason, conn: wc})
	}
}

// heartbeatLoop is the liveness watch: every interval it pings all
// connections — registered workers and parked spares alike — and evicts
// any whose latest pong is older than the miss budget. Parked spares can
// otherwise die silently only on OS-level resets; a wedged-but-connected
// peer is indistinguishable from a healthy idle one without this probe.
func (m *Master) heartbeatLoop() {
	defer m.wg.Done()
	interval := m.cfg.Heartbeat
	miss := m.cfg.HeartbeatMiss
	if miss <= 0 {
		miss = 3
	}
	budget := time.Duration(miss) * interval
	tick := time.NewTicker(interval)
	defer tick.Stop()
	var conns []*workerConn // reused snapshot buffer
	for {
		select {
		case <-m.quit:
			return
		case <-tick.C:
		}
		conns = conns[:0]
		m.mu.Lock()
		conns = append(conns, m.workers...)
		conns = append(conns, m.pending...)
		m.mu.Unlock()
		now := time.Now().UnixNano()
		for _, wc := range conns {
			select {
			case <-wc.dead:
				continue // already down; its read loop handled it
			default:
			}
			if now-wc.lastPong.Load() > int64(budget) {
				m.evictConn(wc, errLivenessLost)
				continue
			}
			wc.t.sendPing() //nolint:errcheck // a dead conn surfaces via its read loop
		}
	}
}

// noteRoundOutcome feeds the eviction policy at the end of every round:
// responders reset their failure streak, workers that died or timed out
// extend theirs, and a streak reaching EvictAfter evicts the worker (its
// slot stays dead until RepairWorkers promotes a spare into it). Workers
// that were merely slower than the first k — never timed out — are not
// penalized.
//
//s2c2:noalloc-waive
func (m *Master) noteRoundOutcome(c *roundCore, workers []*workerConn) {
	m.mu.Lock()
	for w := 0; w < c.N && w < len(m.failStreak); w++ {
		switch {
		case c.Responded[w]:
			m.failStreak[w] = 0
		case c.Dead[w]:
			m.failStreak[w]++
		}
	}
	for _, w := range c.TimedOut {
		if w < len(m.failStreak) {
			m.failStreak[w]++
		}
	}
	var toEvict []*workerConn
	if m.cfg.EvictAfter > 0 {
		for w := 0; w < c.N && w < len(m.workers) && w < len(m.failStreak); w++ {
			wc := m.workers[w]
			if m.failStreak[w] < m.cfg.EvictAfter || wc != workers[w] || wc.evicted.Load() {
				continue
			}
			select {
			case <-wc.dead:
				continue // already down; nothing left to evict
			default:
			}
			toEvict = append(toEvict, wc)
		}
	}
	m.mu.Unlock()
	for _, wc := range toEvict {
		wc.t.sendShutdown() //nolint:errcheck // best effort
		m.evictConn(wc, errRoundFailures)
		c.stats.Recovery.Evictions++
	}
}

// errRoundFailures is the eviction reason of the EvictAfter policy.
var errRoundFailures = errors.New("rpc: evicted after repeated round failures")

// repair replans (the ledger's PlanRepair) and re-sends the coverage lost
// to dead workers, absorbing send-time deaths by replanning until every
// extra sticks or too few workers remain. Each iteration that fails marks
// at least one more worker dead, so the loop runs at most n times.
//
//s2c2:noalloc-waive
func (l *jobLane[C, T]) repair(workers []*workerConn, iter, phase int, x []T, bw int) error {
	ws := &l.round
	for {
		if ws.AliveWorkers() < ws.K {
			return roundLostError(&ws.roundCore, iter, phase)
		}
		if err := ws.PlanRepair(); err != nil {
			return fmt.Errorf("rpc: %w", err)
		}
		rows, lost := l.sendExtras(workers, iter, phase, x, bw)
		ws.stats.Recovery.RecoveredRows += rows
		if !lost {
			return nil
		}
	}
}

// stallError reports a round cut short by the hard stall deadline, naming
// what it was still waiting for: the alive workers that owe it assigned
// rows, and how many rows are short of coverage k. what is the caller's
// "round (iter,phase) stalled…" prefix.
//
//s2c2:noalloc-waive
func (c *roundCore) stallError(what string) error {
	return fmt.Errorf("rpc: %s: %d of %d workers responded; workers %v still owe results (timed out: %v, dead: %v); %d of %d rows short of coverage %d",
		what, c.NResponded, c.N, c.Owing(), c.TimedOut, c.DeadWorkers, c.Needed, c.BlockRows, c.K)
}

// roundLostError reports a round that lost so many workers that coverage
// k is unreachable.
func roundLostError(c *roundCore, iter, phase int) error {
	return fmt.Errorf("rpc: round (%d,%d) lost %d workers; %d alive, coverage needs %d distinct",
		iter, phase, len(c.DeadWorkers), c.AliveWorkers(), c.K)
}
