package experiments

import (
	"fmt"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/sim"
	"github.com/coded-computing/s2c2/internal/trace"
)

// multiCode is one phase of the §3.1 strawman: it stores a (12,10) and a
// (12,9) encoding and runs each round on the one that round's straggler
// count picks (oracle speeds: a straggler is below the fastest/5).
type multiCode struct {
	tr      *trace.Trace
	k10, k9 *sim.CodedCluster
}

func (m *multiCode) RunIteration(iter int, x []float64) (*sim.Accounting, []float64, error) {
	n := m.tr.NumWorkers()
	fastest := 0.0
	for w := 0; w < n; w++ {
		fastest = max(fastest, m.tr.At(w, iter))
	}
	stragglers := 0
	for w := 0; w < n; w++ {
		if m.tr.At(w, iter) < fastest/5 {
			stragglers++
		}
	}
	if stragglers > 2 {
		return m.k9.RunIteration(iter, x)
	}
	return m.k10.RunIteration(iter, x)
}

// RunAblateMultiCode evaluates the §3.1 strawman the paper argues
// against: storing *multiple* encoded copies (a (12,10) and a (12,9)
// partition per worker) and switching per round based on the observed
// straggler count. It adapts to exactly two scenarios, pays the summed
// storage of every stored code, and still wastes slack within each code —
// whereas S2C2 stores one conservative code and adapts continuously.
func RunAblateMultiCode(c Config) ([]*Table, error) {
	iters := c.iters()
	lr := lrWorkload(c)
	conventional := func(m *mat.Dense, k int, tr *trace.Trace) (*sim.CodedCluster, error) {
		code, err := coding.NewMDSCode(12, k)
		if err != nil {
			return nil, err
		}
		enc := code.Encode(m)
		return &sim.CodedCluster{
			Enc:      enc,
			Strategy: &sched.ConventionalMDS{N: 12, K: k, BlockRows: enc.BlockRows},
			Trace:    tr,
			Comm:     comm(),
			Timeout:  timeout(),
		}, nil
	}

	t := &Table{
		Title:   "Ablation (§3.1 strawman): multi-code switching vs S2C2",
		Headers: []string{"stragglers", "multi-code {(12,10),(12,9)}", "s2c2(12,6)", "storage/node multi", "storage/node s2c2"},
		Notes: []string{
			"multi-code stores BOTH encodings (1/10 + 1/9 = 21.1% of data per node) yet only adapts to two scenarios",
			"s2c2 stores one (12,6) encoding (16.7%) and adapts to any straggler count and partial speeds",
			"latencies normalized to s2c2 @ 0 stragglers",
		},
	}
	var base float64
	for s := 0; s <= 3; s++ {
		tr := trace.ControlledCluster(12, s, iters+5, c.Seed+int64(300+s))
		var phases []sim.Cluster
		for _, m := range lr.Matrices() {
			k10, err := conventional(m, 10, tr)
			if err != nil {
				return nil, err
			}
			k9, err := conventional(m, 9, tr)
			if err != nil {
				return nil, err
			}
			phases = append(phases, &multiCode{tr: tr, k10: k10, k9: k9})
		}
		multi, err := drive(lr, phases, iters)
		if err != nil {
			return nil, err
		}

		s2c2Agg, err := runCodedJob(lr, 12, 6, sim.S2C2Factory(12, 6, 0), nil, tr.Clone(), iters)
		if err != nil {
			return nil, err
		}
		if s == 0 {
			base = s2c2Agg.MeanLatency()
		}
		t.AddRow(fmt.Sprintf("%d", s),
			f2(multi.MeanLatency()/base), f2(s2c2Agg.MeanLatency()/base),
			pct(1.0/10+1.0/9), pct(1.0/6))
	}
	return []*Table{t}, nil
}

// RunLagrangeDemo exercises the Lagrange-coded-computing extension (§2's
// "broader use" direction): a degree-2 polynomial computed on coded data
// with straggler tolerance, reporting the recovery-threshold tradeoff.
func RunLagrangeDemo(c Config) ([]*Table, error) {
	t := &Table{
		Title:   "Extension: Lagrange coded computing — recovery thresholds",
		Headers: []string{"(n,k)", "degree", "threshold", "stragglers tolerated"},
		Notes:   []string{"threshold = (k−1)·deg+1 worker results decode f(X_j) for every block, bit-exact over GF(2³¹−1)"},
	}
	for _, cfg := range []struct{ n, k, d int }{
		{12, 6, 1}, {12, 6, 2}, {12, 4, 3}, {50, 10, 2},
	} {
		code, err := coding.NewLagrangeCode(cfg.n, cfg.k)
		if err != nil {
			return nil, err
		}
		th := code.RecoveryThreshold(cfg.d)
		t.AddRow(fmt.Sprintf("(%d,%d)", cfg.n, cfg.k), fmt.Sprintf("%d", cfg.d),
			fmt.Sprintf("%d", th), fmt.Sprintf("%d", cfg.n-th))
	}
	return []*Table{t}, nil
}

func init() {
	Registry["ablate-multicode"] = RunAblateMultiCode
	Registry["lagrange"] = RunLagrangeDemo
}
