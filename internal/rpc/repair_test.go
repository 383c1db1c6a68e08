package rpc

import (
	"strings"
	"testing"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
)

// TestPlanRepairDoesNotCountGivenUpWorkers replays, on a bare roundCore,
// the sequence behind both TestChaosSoak failures: a worker stays silent
// (a promoted spare that does not hold the phase yet), the grace timer
// re-routes its rows to responders, and then one of those responders
// dies. The silent worker is still "alive" and still assigned the rows,
// but the round already gave up on it: repair must route the dead
// re-executor's rows to someone who will answer instead of treating the
// silent worker as coverage in flight and waiting for the stall deadline.
func TestPlanRepairDoesNotCountGivenUpWorkers(t *testing.T) {
	const n, k, rows = 5, 3, 5
	var c roundCore
	c.begin(n, rows, k, 1)
	// Row r is assigned to workers r, r−1 and r−2 (mod n): coverage exactly
	// k, S2C2 style.
	holders := func(r int) [3]int { return [3]int{r, (r + n - 1) % n, (r + n - 2) % n} }
	for w := 0; w < n; w++ {
		var ranges []coding.Range
		for r := 0; r < rows; r++ {
			for _, h := range holders(r) {
				if h == w {
					ranges = append(ranges, coding.Range{Lo: r, Hi: r + 1})
				}
			}
		}
		c.Assign(w, ranges)
		if w != 4 { // worker 4 never answers
			c.noteResult(w, ranges, time.Duration(w+1)*time.Millisecond, time.Millisecond, false)
		}
	}
	if c.Needed == 0 {
		t.Fatal("test setup: the silent worker must leave rows short of coverage")
	}

	// Grace fires: worker 4 is written off and its rows go to responders.
	if err := c.PlanExtras(nil); err != nil {
		t.Fatal(err)
	}
	if len(c.TimedOut) != 1 || c.TimedOut[0] != 4 {
		t.Fatalf("TimedOut = %v, want [4]", c.TimedOut)
	}
	reExecutor, row := -1, -1
	for w, ranges := range c.Routed.Ranges {
		if len(ranges) > 0 {
			c.Assign(w, ranges)
			if reExecutor < 0 {
				reExecutor, row = w, ranges[0].Lo
			}
		}
	}
	if reExecutor < 0 {
		t.Fatal("test setup: PlanExtras reassigned nothing")
	}

	// The re-executor dies before delivering its extra.
	c.NoteDead(reExecutor)
	if err := c.PlanRepair(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rows; r++ {
		inFlight := 0
		for w := 0; w < n; w++ {
			idx := w*rows + r
			if !c.Dead[w] && w != 4 && (c.Assigned[idx] || c.Routed.Holds[idx]) && !c.Delivered[idx] {
				inFlight++
			}
		}
		if c.Cov[r]+inFlight < k {
			t.Errorf("row %d: coverage %d + %d in flight from workers that answer < %d; repair left it to the silent worker",
				r, c.Cov[r], inFlight, k)
		}
	}
	if got := c.Routed.Extra[4] + c.Routed.Extra[reExecutor]; got != 0 {
		t.Errorf("repair routed %d rows to the silent or the dead worker", got)
	}

	// The stall report names who is owed what.
	msg := c.stallError("round (7,0) stalled").Error()
	for _, want := range []string{"round (7,0) stalled", "timed out: [4]", "still owe results", "rows short of coverage 3"} {
		if !strings.Contains(msg, want) {
			t.Errorf("stall error %q lacks %q", msg, want)
		}
	}

	// A late result from the given-up worker is still accepted …
	before := c.Cov[row]
	c.noteResult(4, []coding.Range{{Lo: row, Hi: row + 1}}, time.Second, time.Millisecond, false)
	if c.Cov[row] != before+1 || c.GivenUp(4) {
		t.Errorf("late result from the timed-out worker was not folded in (cov %d → %d)", before, c.Cov[row])
	}

	// … and when nobody else is left to compute a row, the round waits for
	// the timed-out worker rather than failing while k workers are alive.
	var d roundCore
	d.begin(3, 1, 3, 1)
	for w := 0; w < 3; w++ {
		d.Assign(w, []coding.Range{{Lo: 0, Hi: 1}})
	}
	d.noteResult(0, []coding.Range{{Lo: 0, Hi: 1}}, time.Millisecond, time.Millisecond, false)
	d.TimedOut = append(d.TimedOut, 1, 2)
	if err := d.PlanRepair(); err != nil {
		t.Fatalf("repair with only timed-out holders left: %v", err)
	}
}
