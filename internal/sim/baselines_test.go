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
	"github.com/coded-computing/s2c2/internal/workloads"
)

func TestUncodedReplicationNoStragglers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := mat.Rand(120, 6, rng)
	x := randTestVec(6, rng)
	want := mat.MatVec(a, x)
	tr := trace.ControlledCluster(12, 0, 20, 31)
	u := &UncodedReplication{A: a, Trace: tr, Comm: DefaultComm(), Numeric: true}
	r, y, err := u.RunIteration(0, x)
	if err != nil {
		t.Fatal(err)
	}
	if !mat.VecApproxEqual(y, want, 1e-9) {
		t.Fatal("uncoded result mismatch")
	}
	if r.Latency <= 0 {
		t.Fatal("latency must be positive")
	}
	if r.DataMoves != 0 {
		t.Fatalf("no stragglers should need no data moves, got %d", r.DataMoves)
	}
}

func TestUncodedReplicationSpeculatesOnStragglers(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	a := mat.Rand(120, 6, rng)
	x := randTestVec(6, rng)
	trNone := trace.ControlledCluster(12, 0, 20, 33)
	trStrag := trace.ControlledCluster(12, 2, 20, 33)
	u0 := &UncodedReplication{A: a, Trace: trNone, Comm: DefaultComm()}
	u2 := &UncodedReplication{A: a, Trace: trStrag, Comm: DefaultComm()}
	r0, _, err := u0.RunIteration(0, x)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := u2.RunIteration(0, x)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Speculative == 0 {
		t.Fatal("stragglers must trigger speculation")
	}
	if r2.Latency <= r0.Latency {
		t.Fatal("straggled round should still be slower than clean round")
	}
	// Speculation must beat just waiting for the 5x-slow straggler.
	noSpec := 0.0
	for w := 0; w < 12; w++ {
		ft := computeTime(10, trStrag.At(w, 0))
		if ft > noSpec {
			noSpec = ft
		}
	}
	if r2.Latency >= noSpec {
		t.Fatalf("speculation (%.4f) should beat waiting for the straggler (%.4f)", r2.Latency, noSpec)
	}
}

func TestUncodedReplicationCollapsesBeyondReplicationFactor(t *testing.T) {
	// The Figure 1/6 crossover: with r=3 replication and >= 3 stragglers,
	// replicas land on straggling nodes and recovery needs data movement,
	// so latency degrades sharply vs the clean case.
	rng := rand.New(rand.NewSource(34))
	a := mat.Rand(240, 6, rng)
	x := randTestVec(6, rng)
	lat := map[int]float64{}
	for _, s := range []int{0, 3, 6} {
		tr := trace.ControlledCluster(12, s, 20, 35)
		u := &UncodedReplication{A: a, Trace: tr, Comm: DefaultComm()}
		r, _, err := u.RunIteration(0, x)
		if err != nil {
			t.Fatal(err)
		}
		lat[s] = r.Latency
	}
	if lat[3] <= lat[0] || lat[6] <= lat[3] {
		t.Fatalf("latency should grow with stragglers: %v", lat)
	}
}

// TestUncodedReplicationDeterministic runs each round of a 16-worker
// trace, where speculation has to move data, several times over: the
// latency must repeat to the bit. The data-move fallback picks among idle
// workers that all start at the same trigger time, so the tie must go the
// same way every time (to the lowest id).
func TestUncodedReplicationDeterministic(t *testing.T) {
	a := mat.Rand(640, 60, rand.New(rand.NewSource(34)))
	x := make([]float64, 60)
	moves := 0
	for seed := int64(1); seed <= 5; seed++ {
		tr := trace.ControlledCluster(16, 3, 40, seed)
		for iter := 0; iter < 40; iter++ {
			var first uint64
			for rep := 0; rep < 5; rep++ {
				u := &UncodedReplication{A: a, Trace: tr, Comm: DefaultComm()}
				r, _, err := u.RunIteration(iter, x)
				if err != nil {
					t.Fatal(err)
				}
				bits := math.Float64bits(r.Latency)
				if rep == 0 {
					first = bits
					moves += r.DataMoves
				} else if bits != first {
					t.Fatalf("seed %d round %d: latency %v on run %d, %v on the first",
						seed, iter, r.Latency, rep+1, math.Float64frombits(first))
				}
			}
		}
	}
	if moves == 0 {
		t.Fatal("no round moved data: the test no longer reaches the fallback")
	}
}

func TestOverDecompositionBalancedAndCorrect(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	a := mat.Rand(240, 5, rng)
	x := randTestVec(5, rng)
	want := mat.MatVec(a, x)
	tr := trace.CloudStable(10, 30, 36)
	o := &OverDecomposition{A: a, Trace: tr, Comm: DefaultComm(), Numeric: true}
	var first, last int // the first and last rounds' migrations
	for iter := 0; iter < 10; iter++ {
		r, y, err := o.RunIteration(iter, x)
		if err != nil {
			t.Fatal(err)
		}
		if !mat.VecApproxEqual(y, want, 1e-9) {
			t.Fatalf("iteration %d: over-decomposition result mismatch", iter)
		}
		if iter == 0 {
			first = r.DataMoves
		}
		last = r.DataMoves
	}
	// After the initial rebalancing, stable speeds need few migrations.
	if last > first {
		t.Fatalf("migrations should subside: first %d last %d", first, last)
	}
}

func sumInts(s []int) int {
	t := 0
	for _, v := range s {
		t += v
	}
	return t
}

// TestUncodedReplicationCountsWastedRows checks replication's row counts:
// every worker computes its primary task and the speculative copies it
// was given, each task's first finisher is the copy used, so a round that
// speculates wastes the copies that lost, and a job's aggregate shows it.
func TestUncodedReplicationCountsWastedRows(t *testing.T) {
	const n = 12
	rng := rand.New(rand.NewSource(44))
	a := mat.Rand(600, 50, rng)
	x := randTestVec(50, rng)
	tr := trace.ControlledCluster(n, 2, 20, 44)
	u := &UncodedReplication{A: a, Trace: tr, Comm: DefaultComm()}
	speculative := 0
	for iter := 0; iter < 10; iter++ {
		r, _, err := u.RunIteration(iter, x)
		if err != nil {
			t.Fatal(err)
		}
		computed, used := sumInts(r.ComputedRows), sumInts(r.UsedRows)
		if used != 600 || computed != used+50*r.Speculative {
			t.Fatalf("round %d: %d rows computed, %d used, %d speculative copies of 50 rows; want 600 used, and the copies computed on top",
				iter, computed, used, r.Speculative)
		}
		speculative += r.Speculative
	}
	if speculative == 0 {
		t.Fatal("no round speculated: the test no longer reaches the copies")
	}

	lr := &workloads.LogisticRegression{Data: workloads.SyntheticClassification(600, 50, 44), LR: 0.5}
	var phases []Cluster
	for _, m := range lr.Matrices() {
		phases = append(phases, &UncodedReplication{A: m, Trace: tr, Comm: DefaultComm()})
	}
	res, err := Drive(lr, phases, 10)
	if err != nil {
		t.Fatal(err)
	}
	if waste := res.Aggregate.TotalWastedFraction(); waste <= 0 || waste >= 1 {
		t.Fatalf("a speculating replication job wastes %v of its rows, want a fraction in (0, 1)", waste)
	}
}

// TestOverDecompositionCountsRows checks over-decomposition's row counts:
// each partition is computed once, by its assigned worker, so every
// computed row is used and a round covers all nParts·rowsPer rows.
func TestOverDecompositionCountsRows(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	a := mat.Rand(600, 50, rng) // 48 partitions of 13 rows, 624 padded
	x := randTestVec(50, rng)
	o := &OverDecomposition{A: a, Trace: trace.CloudVolatile(12, 20, 45), Comm: DefaultComm()}
	moves := 0
	for iter := 0; iter < 20; iter++ {
		r, _, err := o.RunIteration(iter, x)
		if err != nil {
			t.Fatal(err)
		}
		if sumInts(r.ComputedRows) != 624 || !slices.Equal(r.ComputedRows, r.UsedRows) {
			t.Fatalf("round %d: computed %v, used %v; want the same 624 rows", iter, r.ComputedRows, r.UsedRows)
		}
		moves += r.DataMoves
	}
	if moves == 0 {
		t.Fatal("no round migrated a partition: the test no longer moves work")
	}
}

func TestOverDecompositionStorageGrowsUnderVolatility(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	a := mat.Rand(400, 4, rng)
	x := randTestVec(4, rng)
	tr := trace.CloudVolatile(10, 100, 37)
	o := &OverDecomposition{A: a, Trace: tr, Comm: DefaultComm()}
	if _, _, err := o.RunIteration(0, x); err != nil {
		t.Fatal(err)
	}
	start := meanFrac(o.StorageFractions())
	for iter := 1; iter < 60; iter++ {
		if _, _, err := o.RunIteration(iter, x); err != nil {
			t.Fatal(err)
		}
	}
	end := meanFrac(o.StorageFractions())
	// The Figure 3 effect: avoiding data movement in an uncoded scheme
	// requires accumulating an ever-growing share of the dataset.
	if end <= start {
		t.Fatalf("storage should grow under volatile speeds: %.3f -> %.3f", start, end)
	}
	if end > 1.0 {
		t.Fatalf("storage fraction %v cannot exceed 1", end)
	}
}

func meanFrac(fs []float64) float64 {
	s := 0.0
	for _, f := range fs {
		s += f
	}
	return s / float64(len(fs))
}

func TestPolyClusterRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	a := mat.Rand(60, 30, rng)
	d := randTestVec(60, rng)
	want := mat.ATDiagA(a, d)

	code, err := coding.NewPolyCode(12, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := code.EncodeHessian(a)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.ControlledCluster(12, 1, 20, 38)
	pc := &PolyCluster{
		Enc:      enc,
		Strategy: &sched.GeneralS2C2{N: 12, K: 9, BlockRows: enc.BlockColsA, Granularity: enc.BlockColsA},
		Trace:    tr,
		Comm:     DefaultComm(),
		Timeout:  DefaultTimeout(),
		Numeric:  true,
	}
	_, y, err := pc.RunIteration(0, d)
	if err != nil {
		t.Fatal(err)
	}
	if !y.ApproxEqual(want, 1e-6) {
		t.Fatal("polynomial S2C2 decode mismatch")
	}
}

func TestPolyS2C2BeatsConventionalPoly(t *testing.T) {
	// Figure 12's shape: with no stragglers and oracle speeds, S2C2 on
	// polynomial codes beats conventional polynomial coding (which waits
	// for the fastest ab full partitions and wastes the rest).
	rng := rand.New(rand.NewSource(39))
	a := mat.Rand(60, 30, rng)
	d := randTestVec(60, rng)
	code, _ := coding.NewPolyCode(12, 3, 3)
	enc, _ := code.EncodeHessian(a)
	tr := trace.ControlledCluster(12, 0, 20, 39)

	conv := &PolyCluster{Enc: enc, Strategy: &sched.ConventionalMDS{N: 12, K: 9, BlockRows: enc.BlockColsA},
		Trace: tr, Comm: DefaultComm(), Timeout: DefaultTimeout()}
	s2c2 := &PolyCluster{Enc: enc, Strategy: &sched.GeneralS2C2{N: 12, K: 9, BlockRows: enc.BlockColsA, Granularity: enc.BlockColsA},
		Trace: tr.Clone(), Comm: DefaultComm(), Timeout: DefaultTimeout()}

	aggC, aggS := &Aggregate{}, &Aggregate{}
	for iter := 0; iter < 10; iter++ {
		rc, _, err := conv.RunIteration(iter, d)
		if err != nil {
			t.Fatal(err)
		}
		rs, _, err := s2c2.RunIteration(iter, d)
		if err != nil {
			t.Fatal(err)
		}
		aggC.Add(rc)
		aggS.Add(rs)
	}
	if aggS.MeanLatency() >= aggC.MeanLatency() {
		t.Fatalf("poly S2C2 (%.4f) should beat conventional (%.4f)",
			aggS.MeanLatency(), aggC.MeanLatency())
	}
}

func randTestVec(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
	}
	return v
}
