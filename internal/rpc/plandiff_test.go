package rpc

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/coded-computing/s2c2/internal/coding"
)

// refExtras is what a reference planner decided: the per-worker extra
// rows and ranges, stats.TimedOut afterwards, and the error.
type refExtras struct {
	rows     []int
	ranges   [][]coding.Range
	timedOut []int
	err      error
}

// refRoute appends row r to worker w's extras, as the planners did before
// the routing moved into sched.Router.
func (e *refExtras) refRoute(mark []bool, blockRows, w, r int) {
	mark[w*blockRows+r] = true
	e.rows[w]++
	rs := e.ranges[w]
	if len(rs) > 0 && rs[len(rs)-1].Hi == r {
		rs[len(rs)-1].Hi = r + 1
	} else {
		rs = append(rs, coding.Range{Lo: r, Hi: r + 1})
	}
	e.ranges[w] = rs
}

// refPlanExtras is the timeout planner (now sched.Ledger.PlanExtras)
// before the routing moved into sched.Router, kept as the reference its
// replacement must match.
func refPlanExtras(c *roundCore) refExtras {
	e := refExtras{rows: make([]int, c.N), ranges: make([][]coding.Range, c.N), timedOut: slices.Clone(c.TimedOut)}
	for w := 0; w < c.N; w++ {
		if c.AssignedRows[w] > 0 && !c.Responded[w] && !c.Dead[w] {
			e.timedOut = append(e.timedOut, w)
		}
	}
	mark := make([]bool, c.N*c.BlockRows)
	for r := 0; r < c.BlockRows; r++ {
		for cv := c.Cov[r]; cv < c.K; cv++ {
			best := -1
			for w := 0; w < c.N; w++ {
				if !c.Responded[w] || c.Dead[w] || c.Delivered[w*c.BlockRows+r] || mark[w*c.BlockRows+r] {
					continue
				}
				if best < 0 || e.rows[w] < e.rows[best] {
					best = w
				}
			}
			if best < 0 {
				e.err = fmt.Errorf("rpc: cannot re-cover row %d", r)
				return e
			}
			e.refRoute(mark, c.BlockRows, best, r)
		}
	}
	return e
}

// refPlanRepair is the repair planner (now sched.Ledger.PlanRepair)
// before the routing moved into sched.Router, kept as the reference its
// replacement must match.
func refPlanRepair(c *roundCore) refExtras {
	e := refExtras{rows: make([]int, c.N), ranges: make([][]coding.Range, c.N), timedOut: slices.Clone(c.TimedOut)}
	mark := make([]bool, c.N*c.BlockRows)
	for r := 0; r < c.BlockRows; r++ {
		if c.Cov[r] >= c.K {
			continue
		}
		pot, late := 0, 0
		for w := 0; w < c.N; w++ {
			idx := w*c.BlockRows + r
			switch {
			case c.Dead[w] || !c.Assigned[idx] || c.Delivered[idx]:
			case c.GivenUp(w):
				late++
			default:
				pot++
			}
		}
		for have := c.Cov[r] + pot; have < c.K; have++ {
			best := -1
			for w := 0; w < c.N; w++ {
				idx := w*c.BlockRows + r
				if c.Dead[w] || c.Assigned[idx] || c.Delivered[idx] || mark[idx] {
					continue
				}
				if best < 0 || c.AssignedRows[w]+e.rows[w] < c.AssignedRows[best]+e.rows[best] {
					best = w
				}
			}
			if best < 0 && late > 0 {
				late--
				continue
			}
			if best < 0 {
				e.err = fmt.Errorf("rpc: cannot re-cover row %d after worker failure (%d alive, need %d distinct)",
					r, c.AliveWorkers(), c.K)
				return e
			}
			e.refRoute(mark, c.BlockRows, best, r)
		}
	}
	return e
}

// randomRoundState fills c with a random mid-round state: assignments,
// deliveries (and the coverage they make), responders, deaths and
// given-up workers.
func randomRoundState(c *roundCore, rng *rand.Rand) {
	n := 1 + rng.Intn(7)
	blockRows := 1 + rng.Intn(10)
	c.begin(n, blockRows, 1+rng.Intn(n), 1)
	for w := 0; w < n; w++ {
		c.AssignedRows[w] = rng.Intn(blockRows + 1)
		c.Responded[w] = rng.Intn(2) == 0
		c.Dead[w] = rng.Intn(5) == 0
		if !c.Responded[w] && rng.Intn(2) == 0 {
			c.TimedOut = append(c.TimedOut, w)
		}
		for r := 0; r < blockRows; r++ {
			idx := w*blockRows + r
			c.Assigned[idx] = rng.Intn(2) == 0
			if rng.Intn(3) == 0 {
				c.Delivered[idx] = true
				c.Cov[r]++
			}
		}
	}
}

// TestPlannersMatchReference holds the ledger's PlanExtras and PlanRepair,
// backed by sched.Router, to the planners they replaced on random round
// states: the same extras, ranges, timed-out workers and errors (as the
// round path wraps them).
func TestPlannersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var c roundCore
	// tally counts, per planner, the failed plans, the plans with extras,
	// and (repair) the plans that waited on a given-up worker.
	var tally [2][3]int
	for i := 0; i < 10000; i++ {
		randomRoundState(&c, rng)
		repair := i%2 == 1
		var want refExtras
		var err error
		if repair {
			want = refPlanRepair(&c)
			err = c.PlanRepair()
		} else {
			c.TimedOut = c.TimedOut[:0] // the grace fires once per round
			want = refPlanExtras(&c)
			err = c.PlanExtras(nil)
		}
		if err != nil {
			err = fmt.Errorf("rpc: %w", err)
		}
		if fmt.Sprint(err) != fmt.Sprint(want.err) {
			t.Fatalf("state %d (repair %v): error %v, reference %v", i, repair, err, want.err)
		}
		kind := i % 2
		if err != nil {
			tally[kind][0]++
			continue // the extras of a failed plan are never sent
		}
		if slices.ContainsFunc(c.Routed.Extra, func(x int) bool { return x > 0 }) {
			tally[kind][1]++
		}
		if slices.ContainsFunc(c.Routed.Need, func(x int) bool { return x > 0 }) {
			tally[kind][2]++
		}
		if !slices.Equal(c.Routed.Extra, want.rows) || !slices.Equal(c.TimedOut, want.timedOut) {
			t.Fatalf("state %d (repair %v): extras %v timed out %v, reference %v %v",
				i, repair, c.Routed.Extra, c.TimedOut, want.rows, want.timedOut)
		}
		for w := range want.ranges {
			if !slices.Equal(c.Routed.Ranges[w], want.ranges[w]) {
				t.Fatalf("state %d (repair %v): worker %d ranges %v, reference %v", i, repair, w, c.Routed.Ranges[w], want.ranges[w])
			}
		}
	}
	t.Logf("failed / with extras / waiting on a late worker: extras %v, repair %v", tally[0], tally[1])
	if tally[0][0] < 100 || tally[0][1] < 100 || tally[1][0] < 100 || tally[1][1] < 100 || tally[1][2] < 100 {
		t.Fatalf("random states miss an outcome: extras %v, repair %v", tally[0], tally[1])
	}
}
