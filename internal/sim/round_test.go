package sim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/trace"
)

// recordingForecaster predicts a constant speed and records every history
// it is asked to extend: the observed speeds the cluster fed its tracker.
type recordingForecaster struct{ histories *[][]float64 }

func (recordingForecaster) Name() string          { return "recording" }
func (recordingForecaster) Fit([][]float64) error { return nil }
func (f recordingForecaster) Predict(h []float64) float64 {
	*f.histories = append(*f.histories, slices.Clone(h))
	return 1
}

// TestObservedSpeedsAreTraceSpeeds checks both clusters' §6.2 speed
// measurement on a constant-speed trace: the compute time a worker's
// speed is taken from excludes the broadcast and the result transfer, so
// every observation — timed-out workers' included — is the trace speed.
func TestObservedSpeedsAreTraceSpeeds(t *testing.T) {
	const n, rounds = 5, 3
	speeds := [][]float64{{0.02}, {1}, {0.8}, {1.3}, {0.6}} // worker 0 times out
	tr := &trace.Trace{Speeds: speeds}
	check := func(name string, histories [][]float64) {
		t.Helper()
		// The last round's n forecasts saw every earlier round's observation.
		last := histories[len(histories)-n:]
		for w, h := range last {
			if len(h) != rounds {
				t.Fatalf("%s: worker %d history has %d observations, want %d", name, w, len(h), rounds)
			}
			for _, v := range h {
				if math.Abs(v-speeds[w][0]) > 1e-12 {
					t.Errorf("%s: worker %d observed speed %.15g, trace speed %g", name, w, v, speeds[w][0])
				}
			}
		}
	}

	var coded [][]float64
	blockRows := mat.PaddedRows(30, 3) / 3
	c, _, x, _ := buildCluster(t, n, 3, 30, tr, &sched.GeneralS2C2{N: n, K: 3, BlockRows: blockRows, Granularity: 30},
		recordingForecaster{&coded})
	for iter := 0; iter <= rounds; iter++ {
		if _, _, err := c.RunIteration(iter, x); err != nil {
			t.Fatal(err)
		}
	}
	check("coded", coded)

	var poly [][]float64
	rng := rand.New(rand.NewSource(5))
	code, err := coding.NewPolyCode(n, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := code.EncodeHessian(mat.Rand(40, 20, rng))
	if err != nil {
		t.Fatal(err)
	}
	pc := &PolyCluster{Enc: enc, Strategy: &sched.GeneralS2C2{N: n, K: 4, BlockRows: enc.BlockColsA, Granularity: enc.BlockColsA},
		Forecaster: recordingForecaster{&poly}, Trace: tr, Comm: DefaultComm(), Timeout: DefaultTimeout()}
	d := randTestVec(40, rng)
	for iter := 0; iter <= rounds; iter++ {
		if _, _, err := pc.RunIteration(iter, d); err != nil {
			t.Fatal(err)
		}
	}
	check("poly", poly)
}

// TestCodedClusterTrafficCountsEachResultOnce pins BytesMoved for the
// mis-prediction round of TestCodedClusterMispredictionRecovery: the
// 768-byte x to each of 5 workers, one 64-byte assignment per helper, and
// 8 bytes per used row, a helper's re-executed rows counted once.
func TestCodedClusterTrafficCountsEachResultOnce(t *testing.T) {
	n, k := 5, 3
	tr := trace.ControlledCluster(n, 0, 30, 5)
	tr.ApplyStragglers(trace.StragglerSpec{Worker: 0, Factor: 50})
	blockRows := mat.PaddedRows(30, k) / k
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: blockRows, Granularity: 30}
	c, _, x, _ := buildCluster(t, n, k, 30, tr, strat, constantForecaster{1.0})
	r, _, err := c.RunIteration(0, x)
	if err != nil {
		t.Fatal(err)
	}
	helpers, used := 0, 0
	for w := range r.UsedRows {
		used += r.UsedRows[w]
		if c.ledger.Routed.Extra[w] > 0 {
			helpers++
		}
	}
	if want := float64(768*n + 64*helpers + 8*used); r.BytesMoved != want || r.BytesMoved != 4336 {
		t.Fatalf("BytesMoved = %v, want %v (4336)", r.BytesMoved, want)
	}
}
