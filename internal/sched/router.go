package sched

import (
	"fmt"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/kernel"
)

// Router is the reassignment half of §4.3, written once: it routes the
// rows a round is still short of to workers that can compute them. Its one
// caller is the round Ledger, whose timeout planner (the simulator's
// recovery and the runtime's grace extras) and repair planner each keep
// their own rule through the values they pass. It is clock-free, and
// allocation-free once Reset has sized it: a caller Resets it to the
// round's shape, fills Need, Eligible and Holds, and calls Route.
type Router struct {
	blockRows int
	// Need[r] is the coverage row r still needs. Route lowers it by every
	// worker it routes the row to, so it ends at what could not be routed.
	Need []int
	// Eligible[w] reports whether worker w may take rows at all.
	Eligible []bool
	// Holds[w*blockRows+r] reports that worker w already holds row r (it
	// computed it, or is computing it); Route sets it for every row it
	// routes.
	Holds []bool
	// Extra[w] counts the rows Route gave worker w, and Ranges[w] lists
	// them as normalized ranges.
	Extra  []int
	Ranges [][]coding.Range
}

// Reset sizes the router to n workers over blockRows rows and clears its
// inputs and outputs.
//
//s2c2:noalloc
func (rt *Router) Reset(n, blockRows int) {
	rt.blockRows = blockRows
	rt.Need = kernel.GrowInts(rt.Need, blockRows)
	clear(rt.Need)
	rt.Eligible = kernel.GrowSlice(rt.Eligible, n)
	clear(rt.Eligible)
	rt.Holds = kernel.GrowSlice(rt.Holds, n*blockRows)
	clear(rt.Holds)
	rt.Extra = kernel.GrowInts(rt.Extra, n)
	clear(rt.Extra)
	rt.Ranges = kernel.GrowSlice(rt.Ranges, n)
	for w := range rt.Ranges {
		rt.Ranges[w] = rt.Ranges[w][:0]
	}
}

// Route visits rows in ascending order and, while row r still needs
// coverage, gives it to the eligible worker that does not hold it with the
// least projected load (base[w]+Extra[w]+1)/max(speed[w], 1e-9); ties go
// to the lowest worker id. A nil base reads as all zeros and a nil speed
// as all ones. A row that runs out of candidates keeps the remainder in
// Need, routing goes on with the next row, and the error names the first
// such row.
//
//s2c2:noalloc
func (rt *Router) Route(base []int, speed []float64) error {
	short := -1
	for r := range rt.Need {
		for ; rt.Need[r] > 0; rt.Need[r]-- {
			best, bestLoad := -1, 0.0
			for w, ok := range rt.Eligible {
				if !ok || rt.Holds[w*rt.blockRows+r] {
					continue
				}
				load := float64(rt.Extra[w] + 1)
				if base != nil {
					load = float64(base[w] + rt.Extra[w] + 1)
				}
				if speed != nil {
					load /= max(speed[w], 1e-9)
				}
				if best < 0 || load < bestLoad {
					best, bestLoad = w, load
				}
			}
			if best < 0 {
				if short < 0 {
					short = r
				}
				break
			}
			rt.Holds[best*rt.blockRows+r] = true
			rt.Extra[best]++
			// Rows are visited in ascending order, so ranges stay normalized.
			rs := rt.Ranges[best]
			if last := len(rs) - 1; last >= 0 && rs[last].Hi == r {
				rs[last].Hi = r + 1
			} else {
				// Amortized: Reset keeps the capacity across rounds.
				//s2c2:waive noalloc
				rt.Ranges[best] = append(rs, coding.Range{Lo: r, Hi: r + 1})
			}
		}
	}
	if short >= 0 {
		return fmt.Errorf("cannot re-cover row %d", short)
	}
	return nil
}
