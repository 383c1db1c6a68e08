package rpc

// gfround_test.go covers the exact GF(2³¹−1) distributed round path: the
// acceptance property (distributed == local, bit-exact, under randomized
// shapes and straggler patterns) and the
// master-side zero-allocation bar mirroring the float64 wire round.

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"testing"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/wire"
)

// randElems fills a fresh slice with canonical field elements.
func randElems(rng *rand.Rand, n int) []gf.Elem {
	out := make([]gf.Elem, n)
	for i := range out {
		out[i] = gf.New(rng.Uint64())
	}
	return out
}

// gfGroundTruth computes A·x over the field locally (the bit-exact
// reference every distributed round must reproduce).
func gfGroundTruth(rows, cols int, data, x []gf.Elem) []gf.Elem {
	y := make([]gf.Elem, rows)
	gf.NewMatrixFromData(rows, cols, data).MulVecInto(y, x)
	return y
}

// runGFTrial runs one randomized cluster trial: random (n,k), partition
// shape, chunking, result splitting, and optionally a
// mis-predicted straggler that forces the §4.3 timeout + reassignment —
// then requires every round to decode bit-exactly against the local
// ground truth.
func runGFTrial(t *testing.T, rng *rand.Rand) {
	t.Helper()
	n := 2 + rng.Intn(4) // 2..5 workers
	k := 1 + rng.Intn(n) // 1..n threshold
	rows := 1 + rng.Intn(48)
	cols := 1 + rng.Intn(8)
	straggler := -1
	frac := 10.0
	if n > k && rng.Intn(2) == 0 {
		straggler = rng.Intn(n)
		frac = 0.15
	}
	mcfg := MasterConfig{StallTimeout: 20 * time.Second}
	if rng.Intn(2) == 0 {
		mcfg.ChunkRows = 1 + rng.Intn(3)
		mcfg.ChunkWindow = 1 + rng.Intn(4)
	}
	reuse := rng.Intn(2) == 0
	mcfg.ReuseRound = reuse
	splitResults := rng.Intn(2) == 0
	m := startTestCluster(t, n, clusterConfig{
		master: mcfg,
		worker: func(i int) WorkerConfig {
			cfg := WorkerConfig{Slowdown: 1, PerRowDelay: 200 * time.Microsecond}
			if i == straggler {
				cfg.Slowdown = 100
			}
			if splitResults {
				cfg.maxResultRows = 3
			}
			return cfg
		},
	})

	data := randElems(rng, rows*cols)
	code, err := coding.NewGFMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := code.Encode(rows, cols, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
	}
	gran := enc.BlockRows
	if rng.Intn(2) == 0 {
		gran = 0 // strategy default granularity
	}
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows, Granularity: gran}
	speeds := make([]float64, n)
	for i := range speeds {
		speeds[i] = 1 // mis-prediction: the straggler looks healthy
	}
	decWS := enc.NewDecodeWorkspace()
	dst := make([]gf.Elem, enc.OrigRows)
	for iter := 0; iter < 2; iter++ {
		x := randElems(rng, cols)
		want := gfGroundTruth(rows, cols, data, x)
		plan, err := strat.Plan(speeds)
		if err != nil {
			t.Fatal(err)
		}
		partials, stats, err := Run(context.Background(), m.DefaultJob(), RoundSpec[gf.Elem]{Iter: iter, X: x, Plan: plan, K: k, TimeoutFrac: frac})
		if err != nil {
			t.Fatalf("n=%d k=%d rows=%d cols=%d straggler=%d: %v",
				n, k, rows, cols, straggler, err)
		}
		got, err := enc.DecodeMatVecInto(dst, partials, decWS)
		if err != nil {
			t.Fatal(err)
		}
		for r := range want {
			if got[r] != want[r] {
				t.Fatalf("n=%d k=%d rows=%d cols=%d straggler=%d reuse=%v split=%v iter=%d: row %d decodes to %d, local compute says %d (reassigned %d)",
					n, k, rows, cols, straggler, reuse, splitResults, iter, r, got[r], want[r], stats.Reassigned)
			}
		}
	}
}

// TestGFRoundExactness is the acceptance property: a distributed GF round
// decodes bit-exactly to the local GFMDSCode compute across randomized
// (n,k), partition shapes and straggler/timeout patterns.
func TestGFRoundExactness(t *testing.T) {
	t.Run("wire", func(t *testing.T) {
		rng := rand.New(rand.NewSource(200))
		trials := 4
		if testing.Short() {
			trials = 2
		}
		for trial := 0; trial < trials; trial++ {
			runGFTrial(t, rng)
		}
	})
}

// TestGFRoundTimeoutReassignmentExact deterministically forces the §4.3
// timeout on the exact path: a dead-slow worker gets real GF work, the
// grace window fires, coverage is reassigned, and the decode must still be
// bit-exact (including the duplicate-partial shape reassignment creates).
func TestGFRoundTimeoutReassignmentExact(t *testing.T) {
	n, k := 4, 2
	m := startTestCluster(t, n, clusterConfig{
		worker: func(i int) WorkerConfig {
			cfg := WorkerConfig{Slowdown: 1, PerRowDelay: 200 * time.Microsecond}
			if i == 3 {
				cfg.Slowdown = 300
			}
			return cfg
		},
	})
	rng := rand.New(rand.NewSource(201))
	rows, cols := 48, 6
	data := randElems(rng, rows*cols)
	code, err := coding.NewGFMDSCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := code.Encode(rows, cols, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
		t.Fatal(err)
	}
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows, Granularity: enc.BlockRows}
	plan, err := strat.Plan([]float64{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	x := randElems(rng, cols)
	partials, stats, err := Run(context.Background(), m.DefaultJob(), RoundSpec[gf.Elem]{X: x, Plan: plan, K: k, TimeoutFrac: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Reassigned == 0 {
		t.Fatal("expected reassigned rows after the timeout")
	}
	got, err := enc.DecodeMatVec(partials)
	if err != nil {
		t.Fatal(err)
	}
	want := gfGroundTruth(rows, cols, data, x)
	for r := range want {
		if got[r] != want[r] {
			t.Fatalf("row %d: distributed decode %d != local %d after reassignment", r, got[r], want[r])
		}
	}
	found := false
	for _, w := range stats.TimedOut {
		if w == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("worker 3 should be listed as timed out, got %v", stats.TimedOut)
	}
}

// TestGFRoundLagrangeExactness closes the Lagrange loop over the wire:
// shares of a Lagrange code (each wrapped as a field matrix) are
// distributed as GF partitions, every worker evaluates its share against
// the round's x (a degree-1 polynomial of the share), and any
// RecoveryThreshold(1) complete share results interpolate the per-block
// products exactly — multiparty exact evaluation end to end.
func TestGFRoundLagrangeExactness(t *testing.T) {
	n, k := 5, 3
	m := startTestCluster(t, n, clusterConfig{
		worker: func(i int) WorkerConfig {
			cfg := WorkerConfig{Slowdown: 1, PerRowDelay: 100 * time.Microsecond}
			if i == 1 {
				cfg.Slowdown = 50 // one straggler; threshold decode ignores it
			}
			return cfg
		},
	})
	rng := rand.New(rand.NewSource(202))
	rows, cols := 30, 5
	data := randElems(rng, rows*cols)
	blockRows := (rows + k - 1) / k
	blocks := make([][]gf.Elem, k)
	for b := range blocks {
		blocks[b] = make([]gf.Elem, blockRows*cols)
		for r := 0; r < blockRows; r++ {
			src := b*blockRows + r
			if src >= rows {
				break
			}
			copy(blocks[b][r*cols:(r+1)*cols], data[src*cols:(src+1)*cols])
		}
	}
	lag, err := coding.NewLagrangeCode(n, k)
	if err != nil {
		t.Fatal(err)
	}
	shares, err := lag.Encode(blocks)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]*gf.Matrix, n)
	for i, s := range shares {
		parts[i] = gf.NewMatrixFromData(blockRows, cols, s)
	}
	if err := Distribute(context.Background(), m.DefaultJob(), 0, parts); err != nil {
		t.Fatal(err)
	}
	// Full-share evaluation: every worker computes all rows of its share.
	assignments := make([][]coding.Range, n)
	for w := range assignments {
		assignments[w] = []coding.Range{{Lo: 0, Hi: blockRows}}
	}
	plan := &sched.Plan{BlockRows: blockRows, Assignments: assignments}
	threshold := lag.RecoveryThreshold(1)
	x := randElems(rng, cols)
	partials, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[gf.Elem]{X: x, Plan: plan, K: threshold, TimeoutFrac: 10.0})
	if err != nil {
		t.Fatal(err)
	}
	results, err := coding.CompleteGFShares(partials, blockRows)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) < threshold {
		t.Fatalf("only %d complete shares for threshold %d", len(results), threshold)
	}
	decoded, err := lag.Decode(results, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := gfGroundTruth(rows, cols, data, x)
	for r := 0; r < rows; r++ {
		b, off := r/blockRows, r%blockRows
		if decoded[b][off] != want[r] {
			t.Fatalf("row %d: Lagrange distributed decode %d != local %d", r, decoded[b][off], want[r])
		}
	}
}

// gfGatherFixture builds a synthetic full GF round of worker results
// against a real exact encoding, bypassing the network.
func gfGatherFixture(tb testing.TB) (*coding.GFEncodedMatrix, []*GFResult, []gf.Elem, []gf.Elem) {
	rng := rand.New(rand.NewSource(203))
	rows, cols := 240, 16
	data := randElems(rng, rows*cols)
	code, err := coding.NewGFMDSCode(10, 8)
	if err != nil {
		tb.Fatal(err)
	}
	enc, err := code.Encode(rows, cols, data)
	if err != nil {
		tb.Fatal(err)
	}
	x := randElems(rng, cols)
	var results []*GFResult
	for _, w := range []int{0, 1, 2, 3, 4, 5, 8, 9} {
		p := enc.WorkerCompute(w, x, []coding.Range{{Lo: 0, Hi: enc.BlockRows}})
		results = append(results, &GFResult{
			Iter: 0, Phase: 0, Worker: w, RowWidth: 1, Ranges: p.Ranges, Values: p.Values,
		})
	}
	return enc, results, x, gfGroundTruth(rows, cols, data, x)
}

// TestMasterGFWireRoundZeroAllocsSteadyState is the exact-path transport
// acceptance criterion, the same bar as
// TestMasterWireRoundZeroAllocsSteadyState: a steady-state GF round on the
// master — sending the GF work assignments, receiving every GF result
// frame through the wire transport, gathering, and decoding — allocates
// nothing.
func TestMasterGFWireRoundZeroAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items, forcing reallocation")
	}
	enc, results, x, want := gfGatherFixture(t)
	n, k := 10, 8

	// Pre-encode the round's result frames once, as the workers would.
	var stream bytes.Buffer
	sender := &wireConn{w: wire.NewWriter(&stream)}
	for _, r := range results {
		if err := sender.sendResult(r); err != nil {
			t.Fatal(err)
		}
	}
	src := bytes.NewReader(stream.Bytes())
	tc := &wireConn{w: wire.NewWriter(io.Discard), r: wire.NewReader(src)}

	m := &Master{cfg: MasterConfig{ReuseRound: true}}
	decWS := enc.NewDecodeWorkspace()
	dst := make([]gf.Elem, enc.OrigRows)
	assignment := []coding.Range{{Lo: 0, Hi: enc.BlockRows}}
	msg := &Msg{}

	runRound := func() {
		ws := &m.def.exact.round
		m.def.exact.recycle()
		ws.begin(n, enc.BlockRows, k, 1)
		// Send tasks: one GF work frame per active worker.
		for w := 0; w < n; w++ {
			ws.workMsg = GFWork{Iter: 0, Phase: 0, W: 1, X: x, Ranges: assignment}
			if err := tc.sendWork(&ws.workMsg); err != nil {
				t.Fatal(err)
			}
		}
		// Receive results: decode each frame into a pooled slot (the
		// readLoop's swap idiom) and gather.
		src.Reset(stream.Bytes())
		for range results {
			if err := tc.recv(msg); err != nil {
				t.Fatal(err)
			}
			if msg.Kind != KindGFResult {
				t.Fatalf("kind %d", msg.Kind)
			}
			r := fromPool[GFResult](&m.def.exact.pool)
			*r, msg.GFResult = msg.GFResult, *r
			if err := ws.addResult(r, time.Millisecond); err != nil {
				t.Fatal(err)
			}
			ws.retained = append(ws.retained, r)
		}
		if ws.Needed != 0 {
			t.Fatal("fixture round did not reach coverage")
		}
		partials, stats, err := ws.finish(m.cfg.ReuseRound)
		if err != nil {
			t.Fatal(err)
		}
		if stats.AssignedRows == nil {
			t.Fatal("missing stats")
		}
		if _, err := enc.DecodeMatVecInto(dst, partials, decWS); err != nil {
			t.Fatal(err)
		}
	}
	runRound() // warm: sizes buffers, pools the result slots, inverts the decode set
	for r := range want {
		if dst[r] != want[r] {
			t.Fatalf("GF wire round fixture row %d: %d != %d", r, dst[r], want[r])
		}
	}
	allocs := steadyAllocs(50, runRound)
	if allocs != 0 {
		t.Fatalf("50 steady-state GF wire rounds allocate %v times on the master, want 0", allocs)
	}
}
