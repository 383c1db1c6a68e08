package sim

import (
	"math"
	"slices"
	"testing"

	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/trace"
	"github.com/coded-computing/s2c2/internal/workloads"
)

// TestRunIterativeGolden pins one job per strategy on the volatile cloud
// trace, planned from a fitted LSTM, to the values the simulator produced
// before prediction state was carried and round scratch recycled (commit
// e97b817). Everything the job reports in virtual time depends on every
// forecast, on LSTM.Fit, and on the order of tied finish times, to the
// last bit; ten of general S2C2's twenty rounds take the mis-prediction
// path.
func TestRunIterativeGolden(t *testing.T) {
	const n = 12
	cfg := predict.DefaultLSTMConfig()
	cfg.Epochs = 5
	fc := predict.NewLSTM(cfg)
	if err := fc.Fit(trace.CloudVolatile(n, 120, 1001).Speeds); err != nil {
		t.Fatal(err)
	}
	tr := trace.CloudVolatile(n, 25, 11)
	data := workloads.SyntheticClassification(240, 24, 3)
	for _, want := range []struct {
		name           string
		k              int
		strategy       StrategyFactory
		latencyBits    uint64
		mispredictions int
		reassigned     int
		computed, used []int
	}{
		{"general-s2c2", 6, S2C2Factory(n, 6, 0), 0x3fd35ed190f373c5, 10, 380,
			[]int{264, 450, 512, 407, 658, 442, 574, 544, 418, 315, 661, 415},
			[]int{210, 450, 482, 385, 625, 378, 574, 510, 376, 293, 604, 393}},
		{"basic-s2c2", 6, BasicS2C2Factory(n, 6, 0), 0x3fd820460b329d6a, 2, 132,
			[]int{440, 456, 455, 445, 457, 457, 456, 458, 440, 446, 458, 444},
			[]int{396, 456, 455, 423, 457, 457, 456, 458, 418, 424, 458, 422}},
		{"mds-12-6", 6, MDSFactory(n, 6), 0x3fd6a803327cdc41, 0, 0,
			[]int{880, 880, 880, 880, 880, 880, 880, 880, 880, 880, 880, 880},
			[]int{0, 308, 484, 132, 792, 484, 880, 616, 396, 176, 836, 176}},
		{"mds-12-10", 10, MDSFactory(n, 10), 0x3fd4dedee72c5e93, 0, 0,
			[]int{540, 540, 540, 540, 540, 540, 540, 540, 540, 540, 540, 540},
			[]int{81, 540, 540, 540, 540, 459, 540, 432, 540, 108, 540, 540}},
	} {
		mk := func() *workloads.LogisticRegression {
			return &workloads.LogisticRegression{Data: data, LR: 0.5, Lambda: 1e-4}
		}
		local, _ := workloads.RunLocal(mk(), 20)
		res, err := RunIterative(mk(), JobConfig{N: n, K: want.k, Strategy: want.strategy, Forecaster: fc, Trace: tr,
			Comm: DefaultComm(), Timeout: DefaultTimeout(), Numeric: true, MaxIter: 20})
		if err != nil {
			t.Fatalf("%s: %v", want.name, err)
		}
		a := res.Aggregate
		if got := math.Float64bits(a.TotalLatency); got != want.latencyBits {
			t.Errorf("%s: total latency %v (%#x), want bits %#x", want.name, a.TotalLatency, got, want.latencyBits)
		}
		if a.Mispredictions != want.mispredictions || a.ReassignedRows != want.reassigned {
			t.Errorf("%s: %d mispredictions, %d reassigned rows; want %d, %d",
				want.name, a.Mispredictions, a.ReassignedRows, want.mispredictions, want.reassigned)
		}
		if !slices.Equal(a.PerWorkerComputed, want.computed) || !slices.Equal(a.PerWorkerUsed, want.used) {
			t.Errorf("%s: per-worker computed %v used %v; want %v, %v",
				want.name, a.PerWorkerComputed, a.PerWorkerUsed, want.computed, want.used)
		}
		if !mat.VecApproxEqual(res.State, local, 1e-6) {
			t.Errorf("%s: final model differs from local execution", want.name)
		}
	}
}
