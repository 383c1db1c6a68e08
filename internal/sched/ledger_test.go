package sched

import (
	"slices"
	"testing"

	"github.com/coded-computing/s2c2/internal/coding"
)

// ledgerModel is FuzzLedger's shadow of a round, kept by plain rules: who
// was assigned and who delivered which row, who responded, who died, and
// the rows each worker was assigned.
type ledgerModel struct {
	n, k, blockRows int
	assigned        []bool // n×blockRows
	delivered       []bool // n×blockRows
	responded, dead []bool
	deadOrder       []int
	assignedRows    []int
	timedOut        []int
}

// deliverers counts the distinct workers that delivered row r.
func (m *ledgerModel) deliverers(r int) int {
	c := 0
	for w := 0; w < m.n; w++ {
		if m.delivered[w*m.blockRows+r] {
			c++
		}
	}
	return c
}

// inFlight counts the alive workers assigned row r that have not
// delivered it: active ones, and late ones the timeout gave up on (timed
// out and still silent).
func (m *ledgerModel) inFlight(r int) (active, late int) {
	for w := 0; w < m.n; w++ {
		if idx := w*m.blockRows + r; !m.dead[w] && m.assigned[idx] && !m.delivered[idx] {
			if !m.responded[w] && slices.Contains(m.timedOut, w) {
				late++
			} else {
				active++
			}
		}
	}
	return active, late
}

// routedTo counts the workers the ledger's router gave row r.
func routedTo(l *Ledger, r int) int {
	c := 0
	for _, rs := range l.Routed.Ranges {
		if slices.ContainsFunc(rs, func(rg coding.Range) bool { return rg.Lo <= r && r < rg.Hi }) {
			c++
		}
	}
	return c
}

// FuzzLedger drives a round ledger through arbitrary sequences of Assign,
// Deliver (partial and final, duplicate and overlapping ranges), NoteDead,
// the timeout's PlanExtras (at most once, as the grace fires once per
// round) and PlanRepair, sending each plan's extras as a caller would,
// and holds it to a shadow model after every step:
//   - row r's coverage is the number of distinct workers that delivered r,
//     and the ledger reports coverage exactly when every row has K;
//   - responders, deaths, assigned rows and the timed-out list (alive,
//     assigned rows, not responded, ascending id) match the model;
//   - no extra goes to a dead worker or to a worker that delivered the row;
//     timeout extras go only to responders, repair extras never to a
//     worker already assigned the row;
//   - a successful PlanExtras leaves cov + routed ≥ K on every row, and a
//     successful PlanRepair cov + in flight + routed ≥ K, leaning on late
//     workers (given up on, still silent) only for a row no other alive
//     worker can take.
//
// It does not assert that a given-up worker (timed out, still silent) is
// never routed repair rows: PlanRepair treats it as any alive worker when
// it routes, so today it can be (ROADMAP item 1(a)).
func FuzzLedger(f *testing.F) {
	f.Add([]byte{4, 9, 2, 0, 0, 1, 0, 9, 0, 1, 1, 0, 5, 1, 2, 2, 0, 7, 3, 1, 0, 1, 4, 2, 2, 5, 9, 4})
	f.Add([]byte{2, 5, 1, 0, 1, 1, 0, 5, 0, 0, 1, 0, 5, 1, 2, 1, 4, 1, 3, 0, 1, 1, 1, 0, 5, 1})
	f.Add([]byte{7, 11, 3, 0, 0, 2, 0, 4, 6, 9, 0, 1, 1, 0, 4, 0, 2, 3, 1, 3, 3, 3, 1, 4, 2, 1, 0, 9, 0, 1, 4})
	f.Add([]byte{0, 0, 0, 1, 0, 1, 0, 1, 1, 3, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		n := 1 + next()%8
		blockRows := 1 + next()%10
		k := 1 + next()%n
		m := &ledgerModel{n: n, k: k, blockRows: blockRows,
			assigned: make([]bool, n*blockRows), delivered: make([]bool, n*blockRows),
			responded: make([]bool, n), dead: make([]bool, n), assignedRows: make([]int, n)}
		var l Ledger
		l.Reset(n, k, blockRows)
		ranges := func() []coding.Range {
			rs := make([]coding.Range, 1+next()%3)
			for i := range rs {
				lo := next() % blockRows
				rs[i] = coding.Range{Lo: lo, Hi: lo + next()%(blockRows-lo+1)}
			}
			return rs
		}
		assign := func(w int, rs []coding.Range) {
			l.Assign(w, rs)
			for _, rg := range rs {
				for r := rg.Lo; r < rg.Hi; r++ {
					m.assigned[w*blockRows+r] = true
				}
				m.assignedRows[w] += rg.Len()
			}
		}
		noteDead := func(w int) {
			l.NoteDead(w)
			if w >= 0 && w < n && !m.dead[w] {
				m.dead[w] = true
				m.deadOrder = append(m.deadOrder, w)
			}
		}
		// send assigns every worker its routed extras, as the round path
		// does, except that a set bit of lose makes that worker's send fail.
		send := func(lose int) {
			for w, rs := range l.Routed.Ranges {
				if len(rs) == 0 {
					continue
				}
				if lose&(1<<w) != 0 {
					noteDead(w)
					continue
				}
				assign(w, slices.Clone(rs))
			}
		}
		// checkExtras holds every routed row to the planner's eligibility
		// rule: repair may not route to a worker already assigned the row,
		// the timeout only to responders.
		checkExtras := func(repair bool, assignedBefore []bool) {
			for w, rs := range l.Routed.Ranges {
				if len(rs) > 0 && (m.dead[w] || !repair && !m.responded[w]) {
					t.Fatalf("extras %v went to worker %d (dead %v, responded %v; repair %v)", rs, w, m.dead[w], m.responded[w], repair)
				}
				for _, rg := range rs {
					for r := rg.Lo; r < rg.Hi; r++ {
						if idx := w*blockRows + r; m.delivered[idx] || repair && assignedBefore[idx] {
							t.Fatalf("row %d went to worker %d, which delivered it (%v) or holds it (%v; repair %v)",
								r, w, m.delivered[idx], assignedBefore[idx], repair)
						}
					}
				}
			}
		}
		graced := false
		for step := 0; len(data) > 0 && step < 64; step++ {
			switch op := next() % 5; op {
			case 0:
				assign(next()%n, ranges())
			case 1:
				w, final := next()%n, next()%2 == 1
				rs := ranges()
				first := l.Deliver(w, rs, final)
				if want := final && !m.responded[w]; first != want {
					t.Fatalf("Deliver(%d, %v, final %v) reported a first response %v, want %v", w, rs, final, first, want)
				}
				m.responded[w] = m.responded[w] || final
				for _, rg := range rs {
					for r := rg.Lo; r < rg.Hi; r++ {
						m.delivered[w*blockRows+r] = true
					}
				}
			case 2:
				noteDead(next()%(n+2) - 1)
			case 3:
				if graced {
					continue
				}
				graced = true
				var speed []float64
				if next()%2 == 1 {
					speed = make([]float64, n)
					for w := range speed {
						speed[w] = float64(next()%8) / 4
					}
				}
				var timedOut []int
				for w := 0; w < n; w++ {
					if m.assignedRows[w] > 0 && !m.responded[w] && !m.dead[w] {
						timedOut = append(timedOut, w)
					}
				}
				m.timedOut = timedOut
				err := l.PlanExtras(speed)
				if !slices.Equal(l.TimedOut, timedOut) {
					t.Fatalf("TimedOut %v, want %v", l.TimedOut, timedOut)
				}
				checkExtras(false, nil)
				if err != nil {
					continue
				}
				for r := 0; r < blockRows; r++ {
					if got := m.deliverers(r) + routedTo(&l, r); got < k {
						t.Fatalf("timeout planned row %d to %d < %d without an error", r, got, k)
					}
				}
				send(next())
			case 4:
				assignedBefore := slices.Clone(m.assigned)
				err := l.PlanRepair()
				checkExtras(true, assignedBefore)
				if err != nil {
					continue
				}
				for r := 0; r < blockRows; r++ {
					active, late := m.inFlight(r)
					got := m.deliverers(r) + active + routedTo(&l, r)
					if got+late < k {
						t.Fatalf("repair left row %d at coverage %d + in flight %d+%d late + routed %d < %d without an error",
							r, m.deliverers(r), active, late, routedTo(&l, r), k)
					}
					for w := 0; w < n && got < k; w++ {
						idx := w*blockRows + r
						if !m.dead[w] && !assignedBefore[idx] && !m.delivered[idx] && !l.Routed.Holds[idx] {
							t.Fatalf("repair left row %d to late workers while worker %d could take it", r, w)
						}
					}
				}
				send(next())
			}

			needed := 0
			for r := 0; r < blockRows; r++ {
				if got := m.deliverers(r); l.Cov[r] != got {
					t.Fatalf("row %d: coverage %d, %d distinct workers delivered it", r, l.Cov[r], got)
				} else if got < k {
					needed++
				}
			}
			if l.Needed != needed || l.Covered() != (needed == 0) {
				t.Fatalf("%d rows short of %d, ledger says %d (covered %v)", needed, k, l.Needed, l.Covered())
			}
			responders := 0
			for w := 0; w < n; w++ {
				if m.responded[w] {
					responders++
				}
			}
			if !slices.Equal(l.Responded, m.responded) || l.NResponded != responders || !slices.Equal(l.Dead, m.dead) ||
				!slices.Equal(l.DeadWorkers, m.deadOrder) || !slices.Equal(l.AssignedRows, m.assignedRows) {
				t.Fatalf("ledger responded %v (%d) dead %v %v rows %v; model %v (%d) %v %v %v", l.Responded, l.NResponded,
					l.Dead, l.DeadWorkers, l.AssignedRows, m.responded, responders, m.dead, m.deadOrder, m.assignedRows)
			}
		}
	})
}

// TestLedgerZeroAllocs pins a warm ledger's round — assignments,
// deliveries, a timeout, a death and its repair — at 0 allocations.
func TestLedgerZeroAllocs(t *testing.T) {
	const n, k, blockRows = 6, 3, 12
	var l Ledger
	round := func() {
		l.Reset(n, k, blockRows)
		for w := 0; w < n; w++ {
			l.Assign(w, []coding.Range{{Lo: 2 * w, Hi: min(2*w+6, blockRows)}})
		}
		for w := 0; w < n-2; w++ {
			l.Deliver(w, []coding.Range{{Lo: 2 * w, Hi: min(2*w+6, blockRows)}}, true)
		}
		if err := l.PlanExtras(nil); err != nil {
			t.Fatal(err)
		}
		for w, rs := range l.Routed.Ranges {
			l.Assign(w, rs)
		}
		l.NoteDead(0)
		if err := l.PlanRepair(); err != nil {
			t.Fatal(err)
		}
	}
	round()
	if a := testing.AllocsPerRun(100, round); a != 0 {
		t.Fatalf("a ledger round allocates %v objects after warm-up, want 0", a)
	}
}
