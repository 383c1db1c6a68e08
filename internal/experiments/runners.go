package experiments

import (
	"fmt"

	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/sim"
	"github.com/coded-computing/s2c2/internal/trace"
	"github.com/coded-computing/s2c2/internal/workloads"
)

// Runner is a named experiment producing one or more tables.
type Runner func(Config) ([]*Table, error)

// Registry maps experiment IDs (`s2c2-exp -list`) to their runners.
var Registry = map[string]Runner{
	"predict":        RunPredictorAccuracy,
	"fig1":           RunFig1Motivation,
	"fig2":           RunFig2Traces,
	"fig3":           RunFig3Storage,
	"fig6":           RunFig6LogisticRegression,
	"fig7":           RunFig7PageRank,
	"fig8":           RunFig8CloudLow,
	"fig9":           RunFig9WasteLow,
	"fig10":          RunFig10CloudHigh,
	"fig11":          RunFig11WasteHigh,
	"fig12":          RunFig12Polynomial,
	"fig13":          RunFig13Scale,
	"ablate-timeout": RunAblateTimeout,
	"ablate-gran":    RunAblateGranularity,
	"ablate-pred":    RunAblatePredictor,
	"ablate-layout":  RunAblateLayout,
}

// runCodedJob executes an Iterative workload under a coded strategy on
// the simulator and returns the aggregate.
func runCodedJob(w workloads.Iterative, n, k int, strat sim.StrategyFactory, fc predict.Forecaster, tr *trace.Trace, iters int) (*sim.Aggregate, error) {
	res, err := sim.RunIterative(w, sim.JobConfig{
		N: n, K: k,
		Strategy:   strat,
		Forecaster: fc,
		Trace:      tr,
		Comm:       comm(),
		Timeout:    timeout(),
		Numeric:    false,
		MaxIter:    iters,
	})
	if err != nil {
		return nil, err
	}
	return res.Aggregate, nil
}

// runUncodedJob executes an Iterative workload on the replication
// baseline, one UncodedReplication per phase, driven as the coded jobs are.
func runUncodedJob(w workloads.Iterative, tr *trace.Trace, iters int) (*sim.Aggregate, error) {
	var phases []sim.Cluster
	for _, m := range w.Matrices() {
		phases = append(phases, &sim.UncodedReplication{A: m, Trace: tr, Comm: comm()})
	}
	return drive(w, phases, iters)
}

// runOverDecompJob is runUncodedJob for the over-decomposition baseline. It
// also returns the per-phase engines, whose storage Figure 3 reads.
func runOverDecompJob(w workloads.Iterative, fc predict.Forecaster, tr *trace.Trace, iters int) (*sim.Aggregate, []*sim.OverDecomposition, error) {
	var engines []*sim.OverDecomposition
	var phases []sim.Cluster
	for _, m := range w.Matrices() {
		o := &sim.OverDecomposition{A: m, Trace: tr, Comm: comm(), Forecaster: fc}
		engines = append(engines, o)
		phases = append(phases, o)
	}
	agg, err := drive(w, phases, iters)
	return agg, engines, err
}

// drive runs w for iters iterations on the phase clusters and returns the
// job's aggregate.
func drive(w workloads.Iterative, phases []sim.Cluster, iters int) (*sim.Aggregate, error) {
	res, err := sim.Drive(w, phases, iters)
	if err != nil {
		return nil, err
	}
	return res.Aggregate, nil
}

// lrWorkload builds the Figure 1/6 logistic-regression job at the config's
// scale.
func lrWorkload(c Config) *workloads.LogisticRegression {
	s := c.scale()
	data := workloads.SyntheticClassification(600*s, 50*s, c.Seed)
	return &workloads.LogisticRegression{Data: data, LR: 0.5, Lambda: 1e-4, Tol: 0}
}

// svmWorkload builds the Figure 8/10/13 SVM job.
func svmWorkload(c Config, features int) *workloads.SVM {
	s := c.scale()
	data := workloads.SyntheticClassification(700*s, features*s, c.Seed+1)
	return &workloads.SVM{Data: data, LR: 0.2, Lambda: 1e-3, Tol: 0}
}

// prWorkload builds the Figure 7 PageRank job.
func prWorkload(c Config) *workloads.PageRank {
	g := workloads.PowerLawGraph(240*c.scale(), 6, c.Seed+2)
	return &workloads.PageRank{Graph: g, Damping: 0.85, Tol: 0}
}

// fitForecaster trains the configured predictor on a disjoint trace drawn
// from the same environment generator.
func fitForecaster(c Config, gen func(workers, steps int, seed int64) *trace.Trace, workers int) (predict.Forecaster, error) {
	train := gen(workers, 200, c.Seed+1000)
	f, err := c.forecaster(train.Speeds)
	if err != nil {
		return nil, fmt.Errorf("experiments: fitting forecaster: %w", err)
	}
	return f, nil
}
