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

// TimeoutPolicy is the §4.3 recovery rule. Work still pending at the
// deadline is abandoned and reassigned to the workers that finished. The
// deadline is the largest of (1+Fraction) × the mean finish time of the
// first k workers, (1+Fraction) × the plan's expected makespan under the
// predicted speeds, and the k-th finish time. Fraction is 0.15 in the
// paper, matching the predictor's ~16.7% error.
type TimeoutPolicy struct {
	Fraction float64
}

// DefaultTimeout returns the paper's 15% policy.
func DefaultTimeout() TimeoutPolicy { return TimeoutPolicy{Fraction: 0.15} }

// Accounting is one simulated round's outcome and traffic, whichever
// scheme ran it, and what an Aggregate sums.
type Accounting struct {
	Iter    int
	Latency float64 // virtual seconds, broadcast to decodable
	// ComputedRows[w] is what worker w was asked to compute (including
	// reassignments); UsedRows[w] is how much of it the master consumed.
	ComputedRows []int
	UsedRows     []int
	// ReassignedRows counts rows re-executed after the timeout fired.
	ReassignedRows int
	// TimedOut lists, in ascending worker id, the workers whose results
	// were abandoned.
	TimedOut []int
	// Mispredicted reports whether the timeout mechanism fired.
	Mispredicted bool
	// BytesMoved is the round's traffic: the broadcast to every worker,
	// one 64-byte assignment per helper, and each used row's result once.
	BytesMoved float64
	// DataMoves counts partitions shipped to a worker that did not hold
	// them: replication's speculative copies, over-decomposition's
	// migrations. A coded round never moves data.
	DataMoves int
	// Speculative counts replication's speculative task launches.
	Speculative int
}

// reset readies a for round iter of n workers, keeping its slices'
// storage.
func (a *Accounting) reset(iter, n int) {
	*a = Accounting{Iter: iter, ComputedRows: growCounters(a.ComputedRows, n),
		UsedRows: growCounters(a.UsedRows, n), TimedOut: a.TimedOut[:0]}
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

// rowCost is what one row of a worker's assignment costs it.
type rowCost struct {
	macs  float64 // multiply-accumulates to compute the row
	bytes float64 // bytes of the row's result
}

// finish is when a worker that starts at start has computed rows at speed
// and sent their results.
func (c rowCost) finish(start float64, rows int, speed float64, comm CommModel) float64 {
	return start + computeElems(float64(rows)*c.macs, speed) + comm.TransferTime(float64(rows)*c.bytes)
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

// roundModel is the timing model both coded clusters run, with the state
// it recycles across rounds: the speed history, the double-buffered plans,
// speed vectors, finish-time records, the §4.3 round ledger, the round's
// accounting and the worker partials handed to the decode.
type roundModel struct {
	acc                         Accounting
	speeds                      speedSource
	planBuf                     sched.PlanBuffer
	predicted, actual, observed []float64
	finishes                    []workerFinish
	ledger                      sched.Ledger
	partials                    []*coding.Partial
	partialBuf, extraBuf        []*coding.Partial // per-worker reusable partials
}

// plan plans round iter from the predicted speeds and reads the trace's
// true speeds for it.
func (m *roundModel) plan(s sched.Strategy, f predict.Forecaster, tr *trace.Trace, iter int) (*sched.Plan, error) {
	n := tr.NumWorkers()
	m.predicted = kernel.Grow(m.predicted, n)
	plan, err := m.planBuf.Next(s, m.speeds.planInto(m.predicted, f, tr, iter))
	if err != nil {
		return nil, err
	}
	m.actual = kernel.Grow(m.actual, n)
	for w := range m.actual {
		m.actual[w] = tr.At(w, iter)
	}
	return plan, nil
}

// simulate runs the planned round iter in virtual time into m.acc: it
// broadcasts inBytes to every worker, finishes each worker at its true
// speed, sets the §4.3 deadline, and delivers the arrivals that land by it
// to the round ledger until every one of blockRows rows has coverage k.
// When coverage misses the deadline, the workers that finished by it are
// used, the rest time out, and the ledger routes the coverage they owed to
// the used workers. Last, the forecaster observes each worker's speed from
// its compute time (§6.2: ℓ/t).
func (m *roundModel) simulate(iter int, plan *sched.Plan, k, blockRows int, inBytes float64, cost rowCost, comm CommModel, timeout TimeoutPolicy) error {
	n := len(m.actual)
	acc := &m.acc
	acc.reset(iter, n)
	broadcast := comm.TransferTime(inBytes)
	acc.BytesMoved += inBytes * float64(n)

	lg := &m.ledger
	lg.Reset(n, k, blockRows)
	finishes := m.finishes[:0]
	for w := 0; w < n; w++ {
		rows := plan.RowsFor(w)
		if rows == 0 {
			continue
		}
		acc.ComputedRows[w] = rows
		lg.Assign(w, plan.Assignments[w])
		finishes = append(finishes, workerFinish{w: w, finish: cost.finish(broadcast, rows, m.actual[w], comm), rows: rows})
	}
	m.finishes = finishes
	if len(finishes) < k {
		return fmt.Errorf("plan uses %d workers, need at least %d", len(finishes), k)
	}
	// pdqsort, like sort.Slice: the order among tied finish times decides
	// which workers' partials are decoded.
	slices.SortFunc(finishes, byFinish)

	// The §4.3 deadline. The mean of the first k responses is the paper's
	// rule. Two refinements keep it sound when S2C2 assigns unequal loads
	// by design: the deadline never precedes the k-th response (the paper
	// measures from there), nor (1+Fraction) × the plan's own makespan
	// under the predicted speeds. A worker on schedule with its assignment
	// is not a straggler merely because lightly loaded peers answered
	// sooner.
	meanK := 0.0
	for _, f := range finishes[:k] {
		meanK += f.finish
	}
	meanK /= float64(k)
	deadline := meanK * (1 + timeout.Fraction)
	planned := 0.0
	for w := 0; w < n; w++ {
		if rows := plan.RowsFor(w); rows > 0 {
			planned = max(planned, cost.finish(broadcast, rows, m.predicted[w], comm))
		}
	}
	deadline = max(deadline, planned*(1+timeout.Fraction), finishes[k-1].finish)

	// Walk the arrivals up to the deadline until coverage. Workers
	// finishing after coverage have their results ignored (conventional
	// MDS's discarded stragglers): their UsedRows stay 0.
	for _, f := range finishes {
		if f.finish > deadline {
			break
		}
		lg.Deliver(f.w, plan.Assignments[f.w], true)
		acc.UsedRows[f.w] = f.rows
		if lg.Covered() {
			acc.Latency = f.finish
			break
		}
	}
	if !lg.Covered() {
		acc.Mispredicted = true
		if err := lg.PlanExtras(m.actual); err != nil {
			return err
		}
		acc.TimedOut = append(acc.TimedOut, lg.TimedOut...)
		// A helper completes at the deadline plus its assignment message,
		// its compute and its reply.
		acc.Latency = deadline
		for w, extra := range lg.Routed.Extra {
			if extra == 0 {
				continue
			}
			acc.ComputedRows[w] += extra
			acc.UsedRows[w] += extra
			acc.ReassignedRows += extra
			acc.Latency = max(acc.Latency, cost.finish(deadline+comm.TransferTime(64), extra, m.actual[w], comm))
			acc.BytesMoved += 64
		}
	}
	for _, rows := range acc.UsedRows {
		acc.BytesMoved += float64(rows) * cost.bytes
	}

	// A timed-out worker's result still arrives eventually — off the
	// critical path — so the master measures its true rate and the
	// predictor converges instead of repeating the same over-estimate
	// every round.
	m.observed = kernel.GrowZeroed(m.observed, n)
	for _, f := range finishes {
		ct := f.finish - broadcast - comm.TransferTime(float64(f.rows)*cost.bytes)
		if ct <= 0 {
			ct = 1e-9
		}
		m.observed[f.w] = float64(f.rows) * cost.macs / ct / ElemRate
	}
	m.speeds.observe(m.observed)
	return nil
}

// encoded is what the numeric round needs of a coded dataset, mat-vec or
// bilinear: worker w's kernel over some of its rows.
type encoded interface {
	WorkerComputeInto(w int, x []float64, ranges []coding.Range, dst *coding.Partial) *coding.Partial
}

// compute runs the kernels the simulated round charged for: every used
// worker's assignment and, after a timeout, the rows routed to it, so the
// decode sees the coverage the latency was charged for.
func (m *roundModel) compute(enc encoded, x []float64, plan *sched.Plan, mispredicted bool) []*coding.Partial {
	lg := &m.ledger
	if m.partialBuf == nil {
		m.partialBuf = make([]*coding.Partial, lg.N)
		m.extraBuf = make([]*coding.Partial, lg.N)
	}
	partials := m.partials[:0]
	for w, ok := range lg.Responded {
		if ok {
			m.partialBuf[w] = enc.WorkerComputeInto(w, x, plan.Assignments[w], m.partialBuf[w])
			partials = append(partials, m.partialBuf[w])
		}
	}
	if mispredicted {
		for w, extra := range lg.Routed.Extra {
			if extra > 0 {
				m.extraBuf[w] = enc.WorkerComputeInto(w, x, lg.Routed.Ranges[w], m.extraBuf[w])
				partials = append(partials, m.extraBuf[w])
			}
		}
	}
	m.partials = partials
	return partials
}
