package sched

import (
	"fmt"
	"slices"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/kernel"
)

// Ledger is a round's §4.3 bookkeeping, written once for the simulator
// and the runtime: which rows each worker was assigned and delivered, each
// row's coverage by distinct workers, who responded, died or was given up
// on, and the extras that the timeout and the repair of a death route
// through Router. It holds no clock, socket or element value: the caller
// decides when a result lands and when the deadline passes, and calls the
// methods in that order. It is allocation-free once Reset has sized it.
//
// The fields are the round's state. Callers read them; the methods write
// them.
type Ledger struct {
	N, K, BlockRows int
	// Needed counts the rows still below coverage K.
	Needed int
	// NResponded counts the workers whose final result landed.
	NResponded int
	// Cov[r] is row r's coverage by distinct workers.
	Cov []int
	// Delivered is the N×BlockRows delivery bitmap: worker w delivered row
	// r. It makes duplicate (worker, row) deliveries idempotent.
	Delivered []bool
	// Assigned is the N×BlockRows assignment bitmap: row r is expected from
	// worker w (an original assignment or an extra that went out).
	// PlanRepair counts alive-but-undelivered assignments as in-flight
	// potential, so repair never re-covers rows a healthy worker is
	// already computing.
	Assigned []bool
	// AssignedRows[w] counts the rows assigned to worker w, extras
	// included.
	AssignedRows []int
	// Responded marks the workers whose final result landed.
	Responded []bool
	// Dead marks the workers that died this round, and DeadWorkers lists
	// them in the order they died.
	Dead        []bool
	DeadWorkers []int
	// TimedOut lists, in ascending worker id, the workers PlanExtras wrote
	// off: alive, assigned rows, and not responded when it ran.
	TimedOut []int
	// Routed holds the extras of the last PlanExtras or PlanRepair. Reset
	// leaves it alone, so only rounds that time out or lose a worker pay
	// for sizing it.
	Routed Router
}

// Reset readies the ledger for a round of n workers over blockRows rows
// that needs coverage k on every row.
//
//s2c2:noalloc
func (l *Ledger) Reset(n, k, blockRows int) {
	l.N, l.K, l.BlockRows = n, k, blockRows
	l.Needed = blockRows
	l.NResponded = 0
	l.Cov = kernel.GrowInts(l.Cov, blockRows)
	clear(l.Cov)
	l.Delivered = kernel.GrowSlice(l.Delivered, n*blockRows)
	clear(l.Delivered)
	l.Assigned = kernel.GrowSlice(l.Assigned, n*blockRows)
	clear(l.Assigned)
	l.AssignedRows = kernel.GrowInts(l.AssignedRows, n)
	clear(l.AssignedRows)
	l.Responded = kernel.GrowSlice(l.Responded, n)
	clear(l.Responded)
	l.Dead = kernel.GrowSlice(l.Dead, n)
	clear(l.Dead)
	l.DeadWorkers = l.DeadWorkers[:0]
	l.TimedOut = l.TimedOut[:0]
}

// Covered reports whether every row has coverage K.
//
//s2c2:noalloc
func (l *Ledger) Covered() bool { return l.Needed == 0 }

// Assign records that worker w is expected to deliver ranges: an original
// assignment, or an extra that went out.
//
//s2c2:noalloc
func (l *Ledger) Assign(w int, ranges []coding.Range) {
	base := w * l.BlockRows
	for _, rg := range ranges {
		for r := rg.Lo; r < rg.Hi; r++ {
			l.Assigned[base+r] = true
		}
		l.AssignedRows[w] += rg.Len()
	}
}

// Deliver folds worker w's delivery of ranges into the coverage and
// reports whether it made w a responder. Coverage counts each (worker,
// row) pair once, so duplicate deliveries — a slow worker's late original
// overlapping its reassigned rows, or a buggy worker re-sending ranges —
// can never inflate coverage past what the decoder will actually find. A
// delivery that is not final (one segment of a split result) covers its
// rows but does not make w a responder.
//
//s2c2:noalloc
func (l *Ledger) Deliver(w int, ranges []coding.Range, final bool) (responded bool) {
	if final && !l.Responded[w] {
		l.Responded[w] = true
		l.NResponded++
		responded = true
	}
	base := w * l.BlockRows
	for _, rg := range ranges {
		for row := rg.Lo; row < rg.Hi; row++ {
			if l.Delivered[base+row] {
				continue // duplicate (worker, row): coverage already counted
			}
			l.Delivered[base+row] = true
			l.Cov[row]++
			if l.Cov[row] == l.K {
				l.Needed--
			}
		}
	}
	return responded
}

// NoteDead records worker w's death this round (idempotent).
//
//s2c2:noalloc
func (l *Ledger) NoteDead(w int) {
	if w < 0 || w >= l.N || l.Dead[w] {
		return
	}
	l.Dead[w] = true
	// Amortized: Reset keeps the capacity across rounds.
	//s2c2:waive noalloc
	l.DeadWorkers = append(l.DeadWorkers, w)
}

// AliveWorkers counts workers not marked dead this round.
//
//s2c2:noalloc
func (l *Ledger) AliveWorkers() int {
	alive := 0
	for w := 0; w < l.N; w++ {
		if !l.Dead[w] {
			alive++
		}
	}
	return alive
}

// GivenUp reports whether the timeout already wrote worker w off: it is in
// TimedOut and has still not responded. PlanExtras re-routed its rows to
// responders then, so the rows are no longer in-flight potential — if one
// of those responders dies, only the silent worker would be left holding
// them. Its late result still counts when it lands.
//
//s2c2:noalloc
func (l *Ledger) GivenUp(w int) bool {
	return !l.Responded[w] && slices.Contains(l.TimedOut, w)
}

// Potential counts row r's coverage in flight: pot alive workers are still
// expected to deliver it, and late more are too but were given up on by
// the timeout.
//
//s2c2:noalloc
func (l *Ledger) Potential(r int) (pot, late int) {
	for w := 0; w < l.N; w++ {
		idx := w*l.BlockRows + r
		switch {
		case l.Dead[w] || !l.Assigned[idx] || l.Delivered[idx]:
		case l.GivenUp(w):
			late++
		default:
			pot++
		}
	}
	return pot, late
}

// PlanExtras is the §4.3 reassignment when the timeout fires. It appends
// to TimedOut every alive worker that was assigned rows and has not
// responded (a dead worker is in DeadWorkers: a failure, not a straggle),
// then routes every row short of coverage K into Routed, to the responder
// with the least projected extra time — extra rows over speed, nil speed
// reading as all ones — that has not delivered the row and was not just
// given it. The caller sends the extras and Assigns each one that goes
// out.
//
//s2c2:noalloc
func (l *Ledger) PlanExtras(speed []float64) error {
	for w := 0; w < l.N; w++ {
		if l.AssignedRows[w] > 0 && !l.Responded[w] && !l.Dead[w] {
			// Amortized: Reset keeps the capacity across rounds.
			//s2c2:waive noalloc
			l.TimedOut = append(l.TimedOut, w)
		}
	}
	rt := &l.Routed
	rt.Reset(l.N, l.BlockRows)
	for w := range rt.Eligible {
		rt.Eligible[w] = l.Responded[w] && !l.Dead[w]
	}
	copy(rt.Holds, l.Delivered)
	for r, cv := range l.Cov {
		rt.Need[r] = l.K - cv
	}
	return rt.Route(nil, speed)
}

// PlanRepair folds dead workers' undelivered rows back into the round: for
// every row whose confirmed coverage plus in-flight potential falls short
// of K, it routes the deficit into Routed, to the alive workers with the
// fewest assigned plus extra rows that neither hold nor delivered the row.
// Only when no such worker is left does a given-up worker's assignment
// count as potential again. Unlike PlanExtras — which re-executes
// stragglers' rows on responders only — repair may assign to any alive
// worker, responder or not: a dead worker's rows are gone, not merely
// late, so idle capacity is fair game. Every worker holds its full
// partition, so any alive worker can compute any of its own partition's
// rows.
//
//s2c2:noalloc
func (l *Ledger) PlanRepair() error {
	rt := &l.Routed
	rt.Reset(l.N, l.BlockRows)
	for w := range rt.Eligible {
		rt.Eligible[w] = !l.Dead[w]
	}
	for i := range rt.Holds {
		rt.Holds[i] = l.Assigned[i] || l.Delivered[i]
	}
	for r, cv := range l.Cov {
		if cv < l.K {
			pot, _ := l.Potential(r)
			rt.Need[r] = l.K - cv - pot
		}
	}
	if rt.Route(l.AssignedRows, nil) == nil {
		return nil
	}
	for r, short := range rt.Need {
		// Nobody else can compute the rest of row r: the round waits for
		// given-up workers' late results after all, if enough hold it.
		if _, late := l.Potential(r); short > late {
			return fmt.Errorf("cannot re-cover row %d after worker failure (%d alive, need %d distinct)",
				r, l.AliveWorkers(), l.K)
		}
	}
	return nil
}

// Owing lists the alive workers that still owe rows: assigned some they
// have not delivered. It allocates; it is for reporting a stalled round.
//
//s2c2:noalloc-waive
func (l *Ledger) Owing() []int {
	var owed []int
	for w := 0; w < l.N; w++ {
		for r := 0; r < l.BlockRows && !l.Dead[w]; r++ {
			if idx := w*l.BlockRows + r; l.Assigned[idx] && !l.Delivered[idx] {
				owed = append(owed, w)
				break
			}
		}
	}
	return owed
}
