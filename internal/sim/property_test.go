package sim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/trace"
)

// Property: with oracle speed knowledge, general S2C2 is never slower
// than conventional MDS on the same code and environment (up to the
// simulator's communication constants) — the paper's core dominance
// claim. Random n, k, straggler counts, and trace seeds.
func TestS2C2DominatesConventionalProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 6 + r.Intn(8)     // 6..13 workers
		k := n/2 + r.Intn(n/2) // n/2 .. n-1
		if k >= n {
			k = n - 1
		}
		stragglers := r.Intn(n - k + 1) // within the code's tolerance
		rows := 40 * k
		a := mat.Rand(rows, 64, r)
		x := make([]float64, 64)
		for i := range x {
			x[i] = r.Float64()
		}
		tr := trace.ControlledCluster(n, stragglers, 10, seed)
		code, err := coding.NewMDSCode(n, k)
		if err != nil {
			return false
		}
		enc := code.Encode(a)
		mkCluster := func(s sched.Strategy, tr *trace.Trace) *CodedCluster {
			return &CodedCluster{Enc: enc, Strategy: s, Trace: tr, Comm: DefaultComm(), Timeout: DefaultTimeout()}
		}
		conv := mkCluster(&sched.ConventionalMDS{N: n, K: k, BlockRows: enc.BlockRows}, tr)
		adap := mkCluster(&sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows}, tr.Clone())
		convLat, s2c2Lat := 0.0, 0.0
		for iter := 0; iter < 5; iter++ {
			rc, _, err := conv.RunIteration(iter, x)
			if err != nil {
				return false
			}
			rs, _, err := adap.RunIteration(iter, x)
			if err != nil {
				return false
			}
			convLat += rc.Latency
			s2c2Lat += rs.Latency
		}
		// Allow 5% slack for comm constants and chunk quantization.
		return s2c2Lat <= convLat*1.05
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: round latency is monotone in straggler count for S2C2 with
// oracle speeds (more lost capacity can only slow the round), and the
// decoded result never changes.
func TestS2C2LatencyMonotoneInStragglers(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	n, k := 10, 6
	a := mat.Rand(300, 64, rng)
	x := make([]float64, 64)
	for i := range x {
		x[i] = rng.Float64()
	}
	want := mat.MatVec(a, x)
	code, _ := coding.NewMDSCode(n, k)
	enc := code.Encode(a)
	prev := 0.0
	for s := 0; s <= n-k; s++ {
		tr := trace.ControlledCluster(n, s, 10, 200) // same seed → same healthy speeds
		c := &CodedCluster{
			Enc:      enc,
			Strategy: &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows},
			Trace:    tr,
			Comm:     DefaultComm(),
			Timeout:  DefaultTimeout(),
			Numeric:  true,
		}
		total := 0.0
		for iter := 0; iter < 5; iter++ {
			r, y, err := c.RunIteration(iter, x)
			if err != nil {
				t.Fatal(err)
			}
			if !mat.VecApproxEqual(y, want, 1e-6) {
				t.Fatalf("stragglers=%d iter=%d: decode mismatch", s, iter)
			}
			total += r.Latency
		}
		if total < prev*0.98 { // small tolerance for per-seed jitter
			t.Fatalf("latency decreased when stragglers grew: %v -> %v at s=%d", prev, total, s)
		}
		prev = total
	}
}

// Failure injection: a worker dies mid-job (speed collapses to near zero
// at iteration 3). The AR(1)-driven cluster must recover via the timeout
// path on the failure round and re-plan around the dead worker afterward,
// with every round still decoding correctly.
func TestWorkerDeathMidJobRecovery(t *testing.T) {
	n, k := 6, 4
	rows := 240
	tr := trace.ControlledCluster(n, 0, 40, 301)
	// Worker 2 dies at iteration 3 (speed ≈ 0 thereafter).
	tr.ApplyStragglers(trace.StragglerSpec{Worker: 2, Factor: 10000, From: 3})

	rng := rand.New(rand.NewSource(301))
	a := mat.Rand(rows, 64, rng)
	x := make([]float64, 64)
	for i := range x {
		x[i] = rng.Float64()
	}
	want := mat.MatVec(a, x)
	code, _ := coding.NewMDSCode(n, k)
	enc := code.Encode(a)

	lastValue := lastValueForecaster{}
	c := &CodedCluster{
		Enc:        enc,
		Strategy:   &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows},
		Forecaster: lastValue,
		Trace:      tr,
		Comm:       DefaultComm(),
		Timeout:    DefaultTimeout(),
		Numeric:    true,
	}
	var deathRound *Accounting
	for iter := 0; iter < 8; iter++ {
		r, y, err := c.RunIteration(iter, x)
		if err != nil {
			t.Fatalf("iteration %d: %v", iter, err)
		}
		if !mat.VecApproxEqual(y, want, 1e-6) {
			t.Fatalf("iteration %d: decode mismatch after worker death", iter)
		}
		if iter == 3 {
			snap := *r // the cluster recycles r in the next round
			deathRound = &snap
		}
		if iter >= 5 && r.ComputedRows[2] > rows/20 {
			t.Fatalf("iteration %d: dead worker still assigned %d rows", iter, r.ComputedRows[2])
		}
	}
	if deathRound == nil || !deathRound.Mispredicted {
		t.Fatal("the death round should have triggered timeout recovery")
	}
}

// lastValueForecaster adapts predict.LastValue semantics without the
// import (history carries observed speeds).
type lastValueForecaster struct{}

func (lastValueForecaster) Name() string          { return "last-value" }
func (lastValueForecaster) Fit([][]float64) error { return nil }
func (lastValueForecaster) Predict(h []float64) float64 {
	if len(h) == 0 {
		return 0
	}
	return h[len(h)-1]
}

func TestPolyClusterMispredictionRecovery(t *testing.T) {
	// Polynomial-code variant of the timeout path: predictions say all
	// equal, worker 0 is 40× slower; coverage must be re-established and
	// the Hessian still decode exactly.
	rng := rand.New(rand.NewSource(302))
	a := mat.Rand(60, 30, rng)
	d := make([]float64, 60)
	for i := range d {
		d[i] = rng.Float64()
	}
	want := mat.ATDiagA(a, d)
	code, _ := coding.NewPolyCode(12, 3, 3)
	enc, _ := code.EncodeHessian(a)
	tr := trace.ControlledCluster(12, 0, 10, 302)
	tr.ApplyStragglers(trace.StragglerSpec{Worker: 0, Factor: 40})
	pc := &PolyCluster{
		Enc:        enc,
		Strategy:   &sched.GeneralS2C2{N: 12, K: 9, BlockRows: enc.BlockColsA, Granularity: enc.BlockColsA},
		Forecaster: constantForecaster{1},
		Trace:      tr,
		Comm:       DefaultComm(),
		Timeout:    DefaultTimeout(),
		Numeric:    true,
	}
	r, y, err := pc.RunIteration(0, d)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Mispredicted || r.ReassignedRows == 0 {
		t.Fatalf("expected poly timeout recovery, got mispredicted=%v reassigned=%d",
			r.Mispredicted, r.ReassignedRows)
	}
	if !y.ApproxEqual(want, 1e-6) {
		t.Fatal("poly decode after recovery mismatch")
	}
	if !slices.Equal(r.TimedOut, []int{0}) {
		t.Fatalf("TimedOut = %v, want [0]", r.TimedOut)
	}
}

func TestCommModel(t *testing.T) {
	c := CommModel{Latency: 0.001, Bandwidth: 1e9}
	if got := c.TransferTime(0); got != 0.001 {
		t.Fatalf("zero-byte transfer = %v want latency only", got)
	}
	if got := c.TransferTime(1e9); got != 1.001 {
		t.Fatalf("1GB transfer = %v want 1.001", got)
	}
	if computeElems(0, 1) != 0 {
		t.Fatal("zero elems must cost zero")
	}
	if computeElems(100, 0) < 1e17 {
		t.Fatal("zero speed must be effectively infinite")
	}
}
