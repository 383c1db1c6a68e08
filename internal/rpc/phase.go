package rpc

import (
	"context"
	"fmt"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/sched"
)

// Encoding is the decode side of an MDS encoding whose partitions a job
// holds: *coding.EncodedMatrix or *coding.GFEncodedMatrix. W is its
// decode workspace, which a CodedPhase keeps without naming.
type Encoding[T coding.Element, W any] interface {
	NewDecodeWorkspace() W
	DecodeMatVecInto(dst []T, partials []*coding.PartialOf[T], ws W) ([]T, error)
}

// CodedPhase is one Distribute'd dataset of a job driven through the
// paper's loop (§4), one round per RunIteration: predict each worker's
// speed, plan coded rows in proportion to it, gather k-coverage, decode,
// and fold the observed speeds back into the tracker. It is the rpc
// counterpart of sim.CodedCluster; like a job, it runs one round at a
// time.
type CodedPhase[T coding.Element] struct {
	job         *Job
	phase       int
	strategy    sched.Strategy
	timeoutFrac float64
	tracker     *predict.Tracker
	decode      func(dst []T, partials []*coding.PartialOf[T]) ([]T, error)

	speeds, observed []float64
	out              []T
}

// NewCodedPhase binds phase of job j, encoded by enc, to strategy s (its
// NeedK is the round's decode threshold), the §4.3 grace fraction
// timeoutFrac and tracker t, which holds one series per worker. Several
// phases of one job may share a tracker: each observes into it after its
// round and predicts from it before the next.
func NewCodedPhase[T coding.Element, W any](j *Job, phase int, enc Encoding[T, W], s sched.Strategy, timeoutFrac float64, t *predict.Tracker) *CodedPhase[T] {
	ws := enc.NewDecodeWorkspace()
	n := len(t.Histories())
	return &CodedPhase[T]{
		job: j, phase: phase, strategy: s, timeoutFrac: timeoutFrac, tracker: t,
		decode: func(dst []T, partials []*coding.PartialOf[T]) ([]T, error) {
			return enc.DecodeMatVecInto(dst, partials, ws)
		},
		speeds: make([]float64, n), observed: make([]float64, n),
	}
}

// RunIteration runs round iter of A·x: it plans from the tracker's
// predicted speeds into the job's plan buffer (as Job.PlanRound does),
// runs the round (Run), decodes the product and observes each worker's
// speed. The product is reused storage that the next RunIteration
// overwrites; the stats are Run's.
func (p *CodedPhase[T]) RunIteration(ctx context.Context, iter int, x []T) ([]T, *RoundStats, error) {
	plan, err := p.plan()
	if err != nil {
		return nil, nil, fmt.Errorf("rpc: phase %d iteration %d: %w", p.phase, iter, err)
	}
	partials, stats, err := Run(ctx, p.job, RoundSpec[T]{Iter: iter, Phase: p.phase, X: x, Plan: plan, K: p.strategy.NeedK(), TimeoutFrac: p.timeoutFrac})
	if err != nil {
		return nil, nil, fmt.Errorf("rpc: phase %d iteration %d: %w", p.phase, iter, err)
	}
	y, err := p.finish(partials, stats, len(x))
	if err != nil {
		return nil, nil, fmt.Errorf("rpc: phase %d iteration %d: %w", p.phase, iter, err)
	}
	return y, stats, nil
}

// plan builds the round's plan from the tracker's predicted speeds.
func (p *CodedPhase[T]) plan() (*sched.Plan, error) {
	return p.job.PlanRound(p.strategy, p.tracker.PredictInto(p.speeds))
}

// finish decodes a gathered round over cols-column rows into the reused
// product and observes its speeds.
func (p *CodedPhase[T]) finish(partials []*coding.PartialOf[T], stats *RoundStats, cols int) ([]T, error) {
	y, err := p.decode(p.out, partials)
	if err != nil {
		return nil, err
	}
	p.out = y
	p.observe(stats, cols)
	return y, nil
}

// observe feeds the tracker each worker's elements per second over the
// round: its assigned rows times cols over its response time. It uses the
// response time, not the worker-reported compute time, because only the
// former includes what slows a worker down (an emulated slowdown sleeps
// after the compute is timed). A worker that did not answer or had no
// rows observes 0, and the tracker carries its last value.
func (p *CodedPhase[T]) observe(stats *RoundStats, cols int) {
	for w := range p.observed {
		p.observed[w] = 0
		if stats.ResponseTime[w] > 0 && stats.AssignedRows[w] > 0 {
			p.observed[w] = float64(stats.AssignedRows[w]*cols) / stats.ResponseTime[w].Seconds()
		}
	}
	p.tracker.Observe(p.observed)
}
