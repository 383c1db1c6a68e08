package sim

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/kernel"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/trace"
)

// TimeoutPolicy is the §4.3 recovery rule: after the first k workers
// respond, the remaining workers get Fraction (paper: 0.15, matching the
// predictor's ~16.7% error) of the mean response time of those k; work
// still pending at the deadline is reassigned to the finished workers.
type TimeoutPolicy struct {
	Fraction float64
}

// DefaultTimeout returns the paper's 15% policy.
func DefaultTimeout() TimeoutPolicy { return TimeoutPolicy{Fraction: 0.15} }

// CodedCluster simulates an MDS-coded master/worker cluster executing
// iterative mat-vec rounds.
type CodedCluster struct {
	Enc      *coding.EncodedMatrix
	Strategy sched.Strategy
	// Forecaster predicts next-round speeds from observed history.
	// nil means an oracle that knows the true speeds (the paper's
	// "knowing the exact speeds" configuration).
	Forecaster predict.Forecaster
	Trace      *trace.Trace
	Comm       CommModel
	Timeout    TimeoutPolicy
	// Numeric controls whether workers really execute their kernels and
	// the master really decodes (true: end-to-end verification) or only
	// the timing model runs (false: fast latency sweeps).
	Numeric bool
	// ReuseBuffers lets the cluster return a Round — the struct, its
	// per-worker slices and Result — backed by per-cluster storage that the
	// NEXT RunIteration overwrites. Drivers that consume each round before
	// requesting the next (sim.RunIterative, benchmarks) set it so a
	// steady-state round allocates nothing; leave it false if rounds must
	// outlive the following iteration.
	ReuseBuffers bool

	speeds  speedSource
	scratch clusterScratch
}

// clusterScratch is per-cluster round state recycled across iterations:
// speed vectors, coverage counters, finish-time records, worker partials,
// the decode workspace (which also caches LU factorizations of recurring
// worker sets across rounds), the mis-prediction recovery's working state
// and, under ReuseBuffers, the Round handed back to the caller.
type clusterScratch struct {
	predicted, actual, observed []float64
	cov                         []int
	used                        []bool
	finishes                    []workerFinish
	partials                    []*coding.Partial
	partialBuf                  []*coding.Partial // per-worker reusable partials
	decodeWS                    *coding.DecodeWorkspace
	result                      []float64
	planBuf                     sched.PlanBuffer // double-buffered round plans
	recovery                    recoveryScratch
	round                       Round
}

// Round captures one iteration's outcome and accounting.
type Round struct {
	Iter    int
	Latency float64 // virtual seconds, broadcast to decodable
	// Result is the decoded product (Numeric mode) or nil.
	Result []float64
	// ComputedRows[w] is what worker w was asked to compute (including
	// reassignments); UsedRows[w] is how much of it the master consumed.
	ComputedRows []int
	UsedRows     []int
	// ReassignedRows counts rows re-executed after the timeout fired.
	ReassignedRows int
	// TimedOut lists workers whose results were abandoned.
	TimedOut []int
	// Mispredicted reports whether the timeout mechanism fired.
	Mispredicted bool
	// BytesMoved is control+data traffic this round (broadcast + results).
	BytesMoved float64
}

// WastedFraction returns the round's wasted compute fraction for worker w.
func (r *Round) WastedFraction(w int) float64 {
	if r.ComputedRows[w] == 0 {
		return 0
	}
	return float64(r.ComputedRows[w]-r.UsedRows[w]) / float64(r.ComputedRows[w])
}

// speedSource is where a cluster's planning speeds come from. With a
// forecaster it is a predict.Tracker, created on first use; in oracle
// mode it stays empty — nobody would read the history it kept.
type speedSource struct {
	tracker *predict.Tracker
}

// planInto fills dst with the speeds round iter is planned from: the
// trace's true speeds when f is nil (oracle), otherwise the tracker's
// forecasts.
func (s *speedSource) planInto(dst []float64, f predict.Forecaster, tr *trace.Trace, iter int) []float64 {
	if f == nil {
		for w := range dst {
			dst[w] = tr.At(w, iter)
		}
		return dst
	}
	if s.tracker == nil {
		s.tracker = predict.NewTracker(f, len(dst))
	}
	return s.tracker.PredictInto(dst)
}

// observe records a round's observed per-worker speeds (≤ 0: the worker
// was not observed).
func (s *speedSource) observe(observed []float64) {
	if s.tracker != nil {
		s.tracker.Observe(observed)
	}
}

// RunIteration executes one coded round: plan from predicted speeds,
// simulate worker finish times from true trace speeds, apply the timeout/
// reassignment recovery, decode (in Numeric mode), and update the
// observed-speed history.
func (c *CodedCluster) RunIteration(iter int, x []float64) (*Round, error) {
	n := c.Trace.NumWorkers()
	c.scratch.predicted = kernel.Grow(c.scratch.predicted, n)
	predicted := c.speeds.planInto(c.scratch.predicted, c.Forecaster, c.Trace, iter)
	plan, err := c.scratch.planBuf.Next(c.Strategy, predicted)
	if err != nil {
		return nil, fmt.Errorf("sim: iteration %d: %w", iter, err)
	}
	c.scratch.actual = kernel.Grow(c.scratch.actual, n)
	actual := c.scratch.actual
	for w := 0; w < n; w++ {
		actual[w] = c.Trace.At(w, iter)
	}
	k := c.Strategy.NeedK()
	round, observed, err := c.simulateRound(iter, plan, actual, predicted, k, x)
	if err != nil {
		return nil, err
	}
	c.speeds.observe(observed) // per-worker ℓ/t, as §6.2
	return round, nil
}

// workerFinish orders workers by completion time.
type workerFinish struct {
	w      int
	finish float64
	rows   int
}

func byFinish(a, b workerFinish) int { return cmp.Compare(a.finish, b.finish) }

// growCounters returns s as n zeroed counters.
func growCounters(s []int, n int) []int {
	s = kernel.GrowInts(s, n)
	clear(s)
	return s
}

func (c *CodedCluster) simulateRound(iter int, plan *sched.Plan, actual, predicted []float64, k int, x []float64) (*Round, []float64, error) {
	n := len(actual)
	blockRows := c.Enc.BlockRows
	round := &c.scratch.round
	if c.ReuseBuffers {
		*round = Round{ComputedRows: round.ComputedRows, UsedRows: round.UsedRows, TimedOut: round.TimedOut[:0]}
	} else {
		round = &Round{}
	}
	round.Iter = iter
	round.ComputedRows = growCounters(round.ComputedRows, n)
	round.UsedRows = growCounters(round.UsedRows, n)
	// Broadcast of x to all workers (concurrent sends; one transfer time).
	xBytes := float64(8 * len(x))
	broadcast := c.Comm.TransferTime(xBytes)
	round.BytesMoved += xBytes * float64(n)

	finishes := c.scratch.finishes[:0]
	for w := 0; w < n; w++ {
		rows := plan.RowsFor(w)
		if rows == 0 {
			continue
		}
		round.ComputedRows[w] = rows
		ft := broadcast + computeElems(float64(rows*c.Enc.Cols), actual[w]) + c.Comm.TransferTime(float64(8*rows))
		finishes = append(finishes, workerFinish{w: w, finish: ft, rows: rows})
	}
	c.scratch.finishes = finishes
	if len(finishes) < k {
		return nil, nil, fmt.Errorf("sim: plan uses %d workers, need at least %d", len(finishes), k)
	}
	// pdqsort, like sort.Slice: the order among tied finish times decides
	// which workers' partials are decoded.
	slices.SortFunc(finishes, byFinish)

	// Find when per-row coverage k is first satisfied, walking arrivals.
	cov := growCounters(c.scratch.cov, blockRows)
	c.scratch.cov = cov
	needed := blockRows
	coveredAt := -1.0
	usedUpTo := -1 // index into finishes of last needed arrival
	for i, f := range finishes {
		for _, rg := range plan.Assignments[f.w] {
			for r := rg.Lo; r < rg.Hi; r++ {
				cov[r]++
				if cov[r] == k {
					needed--
				}
			}
		}
		if needed == 0 {
			coveredAt = f.finish
			usedUpTo = i
			break
		}
	}

	// Timeout deadline per §4.3: after the first k responses, stragglers
	// get Fraction of the mean response time. Two refinements keep the
	// rule sound when S2C2 assigns *unequal* loads by design: the deadline
	// never precedes (a) the k-th response (the paper measures from there)
	// or (b) (1+Fraction) × the plan's own expected makespan under the
	// predicted speeds — a worker on schedule with its assignment is not a
	// straggler merely because lightly-loaded peers answered sooner.
	meanK := 0.0
	for i := 0; i < k; i++ {
		meanK += finishes[i].finish
	}
	meanK /= float64(k)
	deadline := meanK * (1 + c.Timeout.Fraction)
	planned := 0.0
	for w := 0; w < n; w++ {
		rows := plan.RowsFor(w)
		if rows == 0 {
			continue
		}
		pf := broadcast + computeElems(float64(rows*c.Enc.Cols), predicted[w]) + c.Comm.TransferTime(float64(8*rows))
		if pf > planned {
			planned = pf
		}
	}
	if d := planned * (1 + c.Timeout.Fraction); d > deadline {
		deadline = d
	}
	if deadline < finishes[k-1].finish {
		deadline = finishes[k-1].finish
	}

	c.scratch.observed = kernel.GrowZeroed(c.scratch.observed, n)
	observed := c.scratch.observed
	used := c.scratch.used
	if cap(used) < n {
		used = make([]bool, n)
	}
	used = used[:n]
	for i := range used {
		used[i] = false
	}
	c.scratch.used = used

	if coveredAt >= 0 && coveredAt <= deadline {
		// Normal path: coverage reached before the timeout.
		round.Latency = coveredAt
		for i := 0; i <= usedUpTo; i++ {
			used[finishes[i].w] = true
			round.UsedRows[finishes[i].w] = finishes[i].rows
		}
		// Workers finishing later have their results ignored (conventional
		// MDS's discarded stragglers): their UsedRows stay 0.
	} else {
		// Mis-prediction: some assigned workers blew the deadline. Their
		// pending coverage is re-executed by finished workers.
		round.Mispredicted = true
		for _, f := range finishes {
			if f.finish <= deadline {
				used[f.w] = true
				round.UsedRows[f.w] = f.rows
			} else {
				round.TimedOut = append(round.TimedOut, f.w)
			}
		}
		helpers, reassigned, err := c.scratch.recovery.reassign(plan, used, cov, k, actual)
		if err != nil {
			return nil, nil, fmt.Errorf("sim: iteration %d: %w", iter, err)
		}
		round.ReassignedRows = reassigned
		// Completion: deadline + assignment message + helper compute+reply.
		latest := deadline
		for _, h := range helpers {
			if h.extra == 0 {
				continue
			}
			round.ComputedRows[h.w] += h.extra
			round.UsedRows[h.w] += h.extra
			ft := deadline + c.Comm.TransferTime(64) + computeElems(float64(h.extra*c.Enc.Cols), actual[h.w]) + c.Comm.TransferTime(float64(8*h.extra))
			if ft > latest {
				latest = ft
			}
			round.BytesMoved += 64 + float64(8*h.extra)
		}
		round.Latency = latest
	}

	// Result bytes from used workers.
	for _, rows := range round.UsedRows {
		round.BytesMoved += float64(8 * rows)
	}

	// Observed speeds from response times (§6.2: ℓ/t). A timed-out
	// worker's result still arrives eventually — off the critical path —
	// so the master measures its true rate and the predictor converges
	// instead of repeating the same over-estimate every round.
	for _, f := range finishes {
		ct := f.finish - broadcast - c.Comm.TransferTime(float64(8*f.rows))
		if ct <= 0 {
			ct = 1e-9
		}
		observed[f.w] = float64(f.rows*c.Enc.Cols) / ct / ElemRate
	}

	// Numeric execution and decode. Worker partials, the decode workspace
	// (with its cached LU factorizations), and the result vector are all
	// recycled across rounds.
	if c.Numeric {
		if c.scratch.partialBuf == nil {
			c.scratch.partialBuf = make([]*coding.Partial, n)
		}
		partials := c.scratch.partials[:0]
		for w := 0; w < n; w++ {
			if used[w] && plan.RowsFor(w) > 0 {
				c.scratch.partialBuf[w] = c.Enc.WorkerComputeInto(w, x, plan.Assignments[w], c.scratch.partialBuf[w])
				partials = append(partials, c.scratch.partialBuf[w])
			}
		}
		if round.Mispredicted {
			// The timing pass reassigned coverage from timed-out workers to
			// finished ones; mirror that here so the decode has coverage k.
			partials = c.scratch.recovery.compute(c.Enc, x, partials)
		}
		c.scratch.partials = partials
		if c.scratch.decodeWS == nil {
			c.scratch.decodeWS = c.Enc.NewDecodeWorkspace()
		}
		c.scratch.result = kernel.Grow(c.scratch.result, c.Enc.OrigRows)
		dec, err := c.Enc.DecodeMatVecInto(c.scratch.result, partials, c.scratch.decodeWS)
		if err != nil {
			return nil, nil, fmt.Errorf("sim: iteration %d decode: %w", iter, err)
		}
		if !c.ReuseBuffers {
			dec = append([]float64(nil), dec...)
		}
		round.Result = dec
	}
	return round, observed, nil
}

// helper is a finished worker taking on re-executed rows after a timeout.
type helper struct {
	w      int
	extra  int            // rows taken on
	ranges []coding.Range // … as normalized ranges
	has    []bool         // rows it covers, assigned or taken on
}

// recoveryScratch is the working state of the §4.3 recovery, recycled
// across rounds and shared by the mat-vec and bilinear clusters.
type recoveryScratch struct {
	helpers  []helper
	has      []bool            // n×blockRows, backing helpers' row sets
	ranges   [][]coding.Range  // per-worker backing of helpers' ranges
	partials []*coding.Partial // per-worker reusable extra partials
}

// reassign is the timing model's reassignment: with only the workers in
// used (those that met the deadline) counted, every row short of coverage
// need is handed, row by row, to the finished worker with the least
// projected extra time that does not cover it yet. It leaves cov at the
// final coverage and returns the finished workers in ascending order with
// what each took on.
func (s *recoveryScratch) reassign(plan *sched.Plan, used []bool, cov []int, need int, actual []float64) ([]helper, int, error) {
	n, blockRows := len(used), len(cov)
	s.has = kernel.GrowSlice(s.has, n*blockRows)
	clear(s.has)
	if len(s.ranges) < n {
		s.ranges = make([][]coding.Range, n)
		s.partials = make([]*coding.Partial, n)
	}
	clear(cov)
	helpers := s.helpers[:0]
	for w, done := range used {
		if !done {
			continue
		}
		h := helper{w: w, ranges: s.ranges[w][:0], has: s.has[w*blockRows : (w+1)*blockRows]}
		for _, rg := range plan.Assignments[w] {
			for r := rg.Lo; r < rg.Hi; r++ {
				h.has[r] = true
				cov[r]++
			}
		}
		helpers = append(helpers, h)
	}
	reassigned := 0
	for r := range cov {
		for cov[r] < need {
			best := -1
			bestLoad := 0.0
			for hi := range helpers {
				h := &helpers[hi]
				if h.has[r] {
					continue
				}
				load := float64(h.extra+1) / maxf(actual[h.w], 1e-9)
				if best < 0 || load < bestLoad {
					best, bestLoad = hi, load
				}
			}
			if best < 0 {
				return nil, 0, fmt.Errorf("cannot re-cover row %d", r)
			}
			h := &helpers[best]
			h.has[r] = true
			h.extra++
			// Rows are visited in ascending order, so ranges stay normalized.
			if last := len(h.ranges) - 1; last >= 0 && h.ranges[last].Hi == r {
				h.ranges[last].Hi = r + 1
			} else {
				h.ranges = append(h.ranges, coding.Range{Lo: r, Hi: r + 1})
			}
			cov[r]++
			reassigned++
		}
	}
	for _, h := range helpers {
		s.ranges[h.w] = h.ranges // keep what append grew
	}
	s.helpers = helpers
	return helpers, reassigned, nil
}

// encoded is what the recovery needs of a coded dataset, mat-vec or
// bilinear: worker w's kernel over some of its rows.
type encoded interface {
	WorkerComputeInto(w int, x []float64, ranges []coding.Range, dst *coding.Partial) *coding.Partial
}

// compute is the numeric mirror of the last reassign: each helper really
// computes the rows it took on, and the resulting partials are appended,
// so the decode sees the coverage the latency was charged for.
func (s *recoveryScratch) compute(enc encoded, x []float64, partials []*coding.Partial) []*coding.Partial {
	for _, h := range s.helpers {
		if h.extra > 0 {
			s.partials[h.w] = enc.WorkerComputeInto(h.w, x, h.ranges, s.partials[h.w])
			partials = append(partials, s.partials[h.w])
		}
	}
	return partials
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
