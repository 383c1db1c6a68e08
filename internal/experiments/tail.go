package experiments

import (
	"slices"

	"github.com/coded-computing/s2c2/internal/sim"
	"github.com/coded-computing/s2c2/internal/trace"
)

// RunTailLatency measures the iteration-latency distribution — the tail
// the paper's title is about. Stragglers inflate the high percentiles of
// uncoded and under-provisioned coded schemes; S2C2 keeps the whole
// distribution tight because every round adapts to the realised speeds.
func RunTailLatency(c Config) ([]*Table, error) {
	// More rounds than the figure runs so the percentiles are meaningful.
	iters := 10 * c.iters()
	svm := svmWorkload(c, 70)
	fc, err := fitForecaster(c, trace.CloudVolatile, 10)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Tail latency: per-iteration latency percentiles (volatile cloud, 10 workers)",
		Headers: []string{"strategy", "p50", "p90", "p99", "p99/p50"},
		Notes:   []string{"coded computing's purpose is the tail: compare p99/p50 tightness across strategies"},
	}
	for _, e := range []struct {
		name    string
		factory sim.StrategyFactory // nil: the uncoded replication baseline
	}{
		{"mds(10,7)", sim.MDSFactory(10, 7)},
		{"s2c2-basic(10,7)", sim.BasicS2C2Factory(10, 7, 0)},
		{"s2c2(10,7)", sim.S2C2Factory(10, 7, 0)},
		{"uncoded-3rep+spec", nil},
	} {
		tr := trace.CloudVolatile(10, iters+5, c.Seed)
		var agg *sim.Aggregate
		if e.factory == nil {
			agg, err = runUncodedJob(svm, tr, iters)
		} else {
			agg, err = runCodedJob(svm, 10, 7, e.factory, fc, tr, iters)
		}
		if err != nil {
			return nil, err
		}
		lat := slices.Sorted(slices.Values(agg.Latencies))
		p := func(q float64) float64 { return lat[int(q*float64(len(lat)-1))] }
		t.AddRow(e.name, f3(p(0.50)), f3(p(0.90)), f3(p(0.99)), f2(p(0.99)/p(0.50)))
	}
	return []*Table{t}, nil
}

func init() {
	Registry["tail"] = RunTailLatency
}
