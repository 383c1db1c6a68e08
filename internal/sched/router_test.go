package sched

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"github.com/coded-computing/s2c2/internal/coding"
)

// routerCase is one Route call decoded from fuzz bytes: the router's
// filled inputs plus the base loads and speeds (either may be nil).
type routerCase struct {
	n, blockRows int
	need         []int
	eligible     []bool
	holds        []bool
	base         []int
	speed        []float64
}

// decodeRouterCase turns arbitrary bytes into a small routing problem;
// missing bytes read as zero.
func decodeRouterCase(data []byte) routerCase {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	c := routerCase{n: 1 + next()%8, blockRows: 1 + next()%12}
	flags := next()
	c.need = make([]int, c.blockRows)
	for r := range c.need {
		c.need[r] = next()%5 - 1
	}
	c.eligible = make([]bool, c.n)
	for w := range c.eligible {
		c.eligible[w] = next()%4 != 3
	}
	c.holds = make([]bool, c.n*c.blockRows)
	for i := range c.holds {
		c.holds[i] = next()%3 == 2
	}
	if flags&1 != 0 {
		c.base = make([]int, c.n)
		for w := range c.base {
			c.base[w] = next() % 16
		}
	}
	if flags&2 != 0 {
		c.speed = make([]float64, c.n)
		for w := range c.speed {
			c.speed[w] = float64(next()%8) / 4 // 0 exercises the 1e-9 floor
		}
	}
	return c
}

// load fills rt with the case's inputs.
func (c routerCase) load(rt *Router) {
	rt.Reset(c.n, c.blockRows)
	copy(rt.Need, c.need)
	copy(rt.Eligible, c.eligible)
	copy(rt.Holds, c.holds)
}

// FuzzReassign checks the §4.3 row router's invariants on arbitrary
// problems: a row reaches its need whenever enough eligible workers do
// not hold it, and otherwise the error names the first row that did not;
// no row goes to a worker that holds it or may not take rows; the ranges
// are normalized and agree with Extra and Holds; and every row's takers
// are its cheapest candidates by (base+extra+1)/max(speed, 1e-9), ties to
// the lowest id, at the moment the row was routed.
func FuzzReassign(f *testing.F) {
	f.Add([]byte{4, 9, 0, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 1, 1, 1, 1, 1})
	f.Add([]byte{2, 5, 3, 4, 4, 0, 2, 1, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 1, 7, 3, 0, 5, 2, 6})
	f.Add([]byte{7, 11, 1, 2, 1, 0, 3, 4, 2, 1, 1, 3, 2, 0, 1, 5, 5, 5, 5, 5, 5, 5, 5, 3, 0, 3, 0, 3})
	f.Add([]byte{0, 0, 2, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeRouterCase(data)
		var rt Router
		c.load(&rt)
		err := rt.Route(c.base, c.speed)

		extra := make([]int, c.n)
		short := -1
		for r := 0; r < c.blockRows; r++ {
			var candidates, takers []int
			for w := 0; w < c.n; w++ {
				idx := w*c.blockRows + r
				took := slices.ContainsFunc(rt.Ranges[w], func(rg coding.Range) bool { return rg.Lo <= r && r < rg.Hi })
				if took {
					takers = append(takers, w)
					if c.holds[idx] || !c.eligible[w] {
						t.Fatalf("row %d went to worker %d, which holds it (%v) or is ineligible (%v)", r, w, c.holds[idx], !c.eligible[w])
					}
				}
				if took != (rt.Holds[idx] && !c.holds[idx]) {
					t.Fatalf("row %d worker %d: routed %v, but Holds was set %v from %v", r, w, took, rt.Holds[idx], c.holds[idx])
				}
				if c.eligible[w] && !c.holds[idx] {
					candidates = append(candidates, w)
				}
			}
			want := min(max(c.need[r], 0), len(candidates))
			if len(takers) != want || rt.Need[r] != c.need[r]-want {
				t.Fatalf("row %d (need %d, %d candidates): %d takers, need left %d", r, c.need[r], len(candidates), len(takers), rt.Need[r])
			}
			if want < c.need[r] && short < 0 {
				short = r
			}
			cost := func(w int) float64 {
				b := 0
				if c.base != nil {
					b = c.base[w]
				}
				s := 1.0
				if c.speed != nil {
					s = max(c.speed[w], 1e-9)
				}
				return float64(b+extra[w]+1) / s
			}
			slices.SortStableFunc(candidates, func(a, b int) int { return cmp.Compare(cost(a), cost(b)) })
			if !slices.Equal(takers, slices.Sorted(slices.Values(candidates[:want]))) {
				t.Fatalf("row %d: taken by %v, the cheapest candidates are %v", r, takers, candidates[:want])
			}
			for _, w := range takers {
				extra[w]++
			}
		}
		if !slices.Equal(rt.Extra, extra) {
			t.Fatalf("Extra %v, ranges count %v", rt.Extra, extra)
		}
		for w, rs := range rt.Ranges {
			if !slices.Equal(rs, coding.AppendNormalizeRanges(nil, rs)) {
				t.Fatalf("worker %d ranges %v not normalized", w, rs)
			}
		}
		if wantErr := short >= 0; (err != nil) != wantErr || wantErr && err.Error() != fmt.Sprintf("cannot re-cover row %d", short) {
			t.Fatalf("error %v, want one naming row %d", err, short)
		}
	})
}

// TestRouterZeroAllocs pins Reset and Route at 0 allocations once a
// router has routed its largest shape, here alternating with a smaller
// one, as the timeout and repair planners of one round do.
func TestRouterZeroAllocs(t *testing.T) {
	full := func(n, blockRows, need int, speed []float64) routerCase {
		c := routerCase{n: n, blockRows: blockRows, need: make([]int, blockRows), eligible: make([]bool, n),
			holds: make([]bool, n*blockRows), base: make([]int, n), speed: speed}
		for r := range c.need {
			c.need[r] = need
		}
		for w := range c.eligible {
			c.eligible[w] = true
			c.base[w] = w
		}
		return c
	}
	cases := []routerCase{full(8, 12, 3, []float64{1, 0.5, 2, 1, 1, 0.25, 1, 3}), full(4, 5, 2, nil)}
	var rt Router
	route := func() {
		for _, c := range cases {
			c.load(&rt)
			if err := rt.Route(c.base, c.speed); err != nil {
				t.Fatal(err)
			}
		}
	}
	route()
	if a := testing.AllocsPerRun(100, route); a != 0 {
		t.Fatalf("Reset+Route allocate %v objects per call after warm-up, want 0", a)
	}
}
