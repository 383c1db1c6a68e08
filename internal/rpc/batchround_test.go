package rpc

// batchround_test.go covers the batched multi-x round path end to end:
// the acceptance property (a width-w distributed round is bit-exact per
// lane against w independent local computes on GF, and within rounding on
// float64), the master-side zero-allocation bar for
// batched frames, the Work/Result frame table and golden, and the
// hostile-input guards on those frames (elems, jobs, widths and value
// counts rejected before allocation, all lanes land or none do).

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"github.com/coded-computing/s2c2/internal/coding"
	"github.com/coded-computing/s2c2/internal/gf"
	"github.com/coded-computing/s2c2/internal/mat"
	"github.com/coded-computing/s2c2/internal/sched"
	"github.com/coded-computing/s2c2/internal/wire"
)

// batchWidths are the round widths the exactness properties sweep. Width
// 1 is included deliberately: the single-x round is the same path.
var batchWidths = []int{1, 2, 4, 8}

// runGFBatchTrial runs one randomized batched GF cluster trial: random
// (n,k) and partition shape, optional mis-predicted straggler forcing the
// timeout + reassignment path, then requires the width-w distributed
// round to decode bit-exactly, lane by lane, against w independent local
// ground-truth products.
func runGFBatchTrial(t *testing.T, rng *rand.Rand, w int) {
	t.Helper()
	n := 2 + rng.Intn(4)
	k := 1 + rng.Intn(n)
	rows := 1 + rng.Intn(40)
	cols := 1 + rng.Intn(8)
	straggler := -1
	frac := 10.0
	if n > k && rng.Intn(2) == 0 {
		straggler = rng.Intn(n)
		frac = 0.15
	}
	splitResults := rng.Intn(2) == 0
	m := startTestCluster(t, n, clusterConfig{
		master: MasterConfig{StallTimeout: 20 * time.Second, ReuseRound: rng.Intn(2) == 0},
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
	strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows, Granularity: enc.BlockRows}
	speeds := make([]float64, n)
	for i := range speeds {
		speeds[i] = 1
	}
	decWS := enc.NewDecodeWorkspace()
	dst := make([]gf.Elem, enc.OrigRows*w)
	for iter := 0; iter < 2; iter++ {
		xs := randElems(rng, w*cols)
		plan, err := strat.Plan(speeds)
		if err != nil {
			t.Fatal(err)
		}
		partials, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[gf.Elem]{Iter: iter, X: xs, Width: w, Plan: plan, K: k, TimeoutFrac: frac})
		if err != nil {
			t.Fatalf("n=%d k=%d rows=%d cols=%d w=%d straggler=%d: %v",
				n, k, rows, cols, w, straggler, err)
		}
		// Every delivered partial is bit-identical to recomputing the same
		// batched ranges locally (worker kernel == local kernel).
		for _, p := range partials {
			local := enc.WorkerComputeBatchInto(p.Worker, xs, w, p.Ranges, nil)
			if len(local.Values) != len(p.Values) {
				t.Fatalf("worker %d: rpc delivered %d values, local compute %d", p.Worker, len(p.Values), len(local.Values))
			}
			for q := range p.Values {
				if p.Values[q] != local.Values[q] {
					t.Fatalf("worker %d value %d: rpc %d != local %d", p.Worker, q, p.Values[q], local.Values[q])
				}
			}
		}
		got, err := enc.DecodeMatVecInto(dst, partials, decWS)
		if err != nil {
			t.Fatal(err)
		}
		for l := 0; l < w; l++ {
			want := gfGroundTruth(rows, cols, data, xs[l*cols:(l+1)*cols])
			for r := range want {
				if got[r*w+l] != want[r] {
					t.Fatalf("n=%d k=%d rows=%d cols=%d w=%d lane=%d iter=%d: row %d decodes to %d, local compute says %d",
						n, k, rows, cols, w, l, iter, r, got[r*w+l], want[r])
				}
			}
		}
	}
}

// TestGFRoundBatchExactness is the batched acceptance property on the
// exact path: a width-w distributed GF round equals w independent local
// products bit-exactly, per lane, across widths and straggler patterns.
func TestGFRoundBatchExactness(t *testing.T) {
	t.Run("wire", func(t *testing.T) {
		rng := rand.New(rand.NewSource(210))
		trials := 2
		if testing.Short() {
			trials = 1
		}
		for _, w := range batchWidths {
			for trial := 0; trial < trials; trial++ {
				runGFBatchTrial(t, rng, w)
			}
		}
	})
}

// TestRoundBatchExactness is the float64 counterpart: every lane of a
// width-w distributed round approximates A·x_l, each delivered partial is
// bit-identical to a local recompute of the same batched ranges, and the
// decode agrees with the direct product within rounding.
func TestRoundBatchExactness(t *testing.T) {
	t.Run("wire", func(t *testing.T) {
		rng := rand.New(rand.NewSource(211))
		for _, w := range batchWidths {
			n := 3 + rng.Intn(3)
			k := 1 + rng.Intn(n)
			rows := 4 + rng.Intn(40)
			cols := 1 + rng.Intn(9)
			m := startTestCluster(t, n, clusterConfig{
				worker: func(i int) WorkerConfig {
					return WorkerConfig{Slowdown: 1, PerRowDelay: 100 * time.Microsecond}
				},
			})
			a := mat.Rand(rows, cols, rng)
			code, err := coding.NewMDSCode(n, k)
			if err != nil {
				t.Fatal(err)
			}
			enc := code.Encode(a)
			if err := Distribute(context.Background(), m.DefaultJob(), 0, enc.Parts); err != nil {
				t.Fatal(err)
			}
			strat := &sched.GeneralS2C2{N: n, K: k, BlockRows: enc.BlockRows, Granularity: enc.BlockRows}
			speeds := make([]float64, n)
			for i := range speeds {
				speeds[i] = 1
			}
			plan, err := strat.Plan(speeds)
			if err != nil {
				t.Fatal(err)
			}
			xs := make([]float64, w*cols)
			for i := range xs {
				xs[i] = rng.NormFloat64()
			}
			partials, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{X: xs, Width: w, Plan: plan, K: k, TimeoutFrac: 10.0})
			if err != nil {
				t.Fatalf("n=%d k=%d w=%d: %v", n, k, w, err)
			}
			for _, p := range partials {
				// Width 1 rides the legacy single-x kernel on the worker;
				// mirror that path locally so the comparison is bit-exact.
				var local *coding.Partial
				if w == 1 {
					local = enc.WorkerCompute(p.Worker, xs, p.Ranges)
				} else {
					local = enc.WorkerComputeBatchInto(p.Worker, xs, w, p.Ranges, nil)
				}
				if len(local.Values) != len(p.Values) {
					t.Fatalf("worker %d: rpc delivered %d values, local compute %d", p.Worker, len(p.Values), len(local.Values))
				}
				for q := range p.Values {
					if p.Values[q] != local.Values[q] {
						t.Fatalf("worker %d value %d: rpc %v != local %v", p.Worker, q, p.Values[q], local.Values[q])
					}
				}
			}
			got, err := enc.DecodeMatVec(partials)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != rows*w {
				t.Fatalf("w=%d: decode length %d want %d", w, len(got), rows*w)
			}
			lane := make([]float64, rows)
			for l := 0; l < w; l++ {
				want := mat.MatVec(a, xs[l*cols:(l+1)*cols])
				for r := 0; r < rows; r++ {
					lane[r] = got[r*w+l]
				}
				if !mat.VecApproxEqual(lane, want, 1e-8) {
					t.Fatalf("n=%d k=%d w=%d lane=%d: decode drifted from A·x_l", n, k, w, l)
				}
			}
		}
	})
}

// TestGFRoundBatchTimeoutReassignment forces the §4.3 timeout on a
// batched round: the straggler's rows are reassigned and the width-w
// decode must still be bit-exact on every lane.
func TestGFRoundBatchTimeoutReassignment(t *testing.T) {
	n, k, w := 4, 2, 4
	m := startTestCluster(t, n, clusterConfig{
		worker: func(i int) WorkerConfig {
			cfg := WorkerConfig{Slowdown: 1, PerRowDelay: 200 * time.Microsecond}
			if i == 3 {
				cfg.Slowdown = 300
			}
			return cfg
		},
	})
	rng := rand.New(rand.NewSource(212))
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
	xs := randElems(rng, w*cols)
	partials, stats, err := Run(context.Background(), m.DefaultJob(), RoundSpec[gf.Elem]{X: xs, Width: w, Plan: plan, K: k, TimeoutFrac: 0.15})
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
	for l := 0; l < w; l++ {
		want := gfGroundTruth(rows, cols, data, xs[l*cols:(l+1)*cols])
		for r := range want {
			if got[r*w+l] != want[r] {
				t.Fatalf("lane %d row %d: %d != local %d after reassignment", l, r, got[r*w+l], want[r])
			}
		}
	}
}

// batchGatherFixture builds a synthetic full width-w float64 round of
// batched worker results against a real encoding, bypassing the network.
func batchGatherFixture(tb testing.TB, w int) (*coding.EncodedMatrix, []*Result, []float64, []float64) {
	rng := rand.New(rand.NewSource(213))
	a := mat.Rand(600, 20, rng)
	code, err := coding.NewMDSCode(10, 8)
	if err != nil {
		tb.Fatal(err)
	}
	enc := code.Encode(a)
	xs := make([]float64, w*20)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	var results []*Result
	for _, wk := range []int{0, 1, 2, 3, 4, 5, 8, 9} {
		p := enc.WorkerComputeBatchInto(wk, xs, w, []coding.Range{{Lo: 0, Hi: enc.BlockRows}}, nil)
		results = append(results, &Result{
			Iter: 0, Phase: 0, Worker: wk, RowWidth: w, Ranges: p.Ranges, Values: p.Values,
		})
	}
	want := make([]float64, 600*w)
	for l := 0; l < w; l++ {
		col := mat.MatVec(a, xs[l*20:(l+1)*20])
		for r := range col {
			want[r*w+l] = col[r]
		}
	}
	return enc, results, xs, want
}

// TestMasterWireBatchRoundZeroAllocsSteadyState holds the batched path to
// the same bar as the single-x wire round: sending width-w work frames,
// receiving every width-w result frame, gathering, and decoding on the
// master allocates nothing in steady state.
func TestMasterWireBatchRoundZeroAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items, forcing reallocation")
	}
	const bw = 4
	enc, results, xs, want := batchGatherFixture(t, bw)
	n, k := 10, 8

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
	dst := make([]float64, enc.OrigRows*bw)
	assignment := []coding.Range{{Lo: 0, Hi: enc.BlockRows}}
	msg := &Msg{}

	runRound := func() {
		ws := &m.def.float.round
		m.def.float.recycle()
		ws.begin(n, enc.BlockRows, k, bw)
		for w := 0; w < n; w++ {
			ws.workMsg = Work{Iter: 0, Phase: 0, W: bw, X: xs, Ranges: assignment}
			if err := tc.sendWork(&ws.workMsg); err != nil {
				t.Fatal(err)
			}
		}
		src.Reset(stream.Bytes())
		for range results {
			if err := tc.recv(msg); err != nil {
				t.Fatal(err)
			}
			if msg.Kind != KindResult {
				t.Fatalf("kind %d", msg.Kind)
			}
			r := fromPool[Result](&m.def.float.pool)
			*r, msg.Result = msg.Result, *r
			if err := ws.addResult(r, time.Millisecond); err != nil {
				t.Fatal(err)
			}
			ws.retained = append(ws.retained, r)
		}
		if ws.Needed != 0 {
			t.Fatal("fixture round did not reach coverage")
		}
		partials, _, err := ws.finish(m.cfg.ReuseRound)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := enc.DecodeMatVecInto(dst, partials, decWS); err != nil {
			t.Fatal(err)
		}
	}
	runRound() // warm: sizes the workspace, factors the decode set
	_ = xs
	if !mat.VecApproxEqual(dst, want, 1e-8) {
		t.Fatal("batched gather+decode fixture produced a wrong result")
	}
	allocs := steadyAllocs(50, runRound)
	if allocs != 0 {
		t.Fatalf("50 steady-state batched rounds allocate %v times, want 0", allocs)
	}
}

// TestMasterGFWireBatchRoundZeroAllocsSteadyState is the exact-path
// mirror: a steady-state width-w GF round over the wire transport
// allocates nothing on the master.
func TestMasterGFWireBatchRoundZeroAllocsSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector drops sync.Pool items, forcing reallocation")
	}
	const bw = 4
	rng := rand.New(rand.NewSource(214))
	rows, cols := 240, 16
	data := randElems(rng, rows*cols)
	code, err := coding.NewGFMDSCode(10, 8)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := code.Encode(rows, cols, data)
	if err != nil {
		t.Fatal(err)
	}
	xs := randElems(rng, bw*cols)
	var results []*GFResult
	for _, wk := range []int{0, 1, 2, 3, 4, 5, 8, 9} {
		p := enc.WorkerComputeBatchInto(wk, xs, bw, []coding.Range{{Lo: 0, Hi: enc.BlockRows}}, nil)
		results = append(results, &GFResult{
			Iter: 0, Phase: 0, Worker: wk, RowWidth: bw, Ranges: p.Ranges, Values: p.Values,
		})
	}
	n, k := 10, 8

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
	dst := make([]gf.Elem, enc.OrigRows*bw)
	assignment := []coding.Range{{Lo: 0, Hi: enc.BlockRows}}
	msg := &Msg{}

	runRound := func() {
		ws := &m.def.exact.round
		m.def.exact.recycle()
		ws.begin(n, enc.BlockRows, k, bw)
		for w := 0; w < n; w++ {
			ws.workMsg = GFWork{Iter: 0, Phase: 0, W: bw, X: xs, Ranges: assignment}
			if err := tc.sendWork(&ws.workMsg); err != nil {
				t.Fatal(err)
			}
		}
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
		partials, _, err := ws.finish(m.cfg.ReuseRound)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := enc.DecodeMatVecInto(dst, partials, decWS); err != nil {
			t.Fatal(err)
		}
	}
	runRound()
	for l := 0; l < bw; l++ {
		want := gfGroundTruth(rows, cols, data, xs[l*cols:(l+1)*cols])
		for r := range want {
			if dst[r*bw+l] != want[r] {
				t.Fatalf("lane %d row %d: %d != %d", l, r, dst[r*bw+l], want[r])
			}
		}
	}
	allocs := steadyAllocs(50, runRound)
	if allocs != 0 {
		t.Fatalf("50 steady-state batched GF rounds allocate %v times, want 0", allocs)
	}
}

// frameCase builds one Work and one Result of element type T for a frame
// table row, every field a function of (job, width) so consecutive rows
// decode to different values.
func frameCase[T coding.Element](job, width int) (*WorkOf[T], *ResultOf[T]) {
	x := make([]T, 2*width)
	vals := make([]T, 2*width)
	for i := range x {
		x[i] = T(job + width + i + 1)
		vals[i] = T(3*i + width)
	}
	rg := []coding.Range{{Lo: width, Hi: width + 2}}
	return &WorkOf[T]{Job: job, Iter: width + 1, Phase: job + 2, W: width, X: x, Ranges: rg},
		&ResultOf[T]{Job: job, Iter: width + 1, Phase: job + 2, Worker: width, Partial: job != 0,
			RowWidth: width, Ranges: rg, Values: vals, ComputeNanos: int64(100*job + width)}
}

// sendFrame frames a *Work, *GFWork, *Result or *GFResult.
func sendFrame(c *wireConn, m any) error {
	switch m.(type) {
	case *Work, *GFWork:
		return c.sendWork(m)
	}
	return c.sendResult(m)
}

// TestBatchFrameRoundTrip runs the elem × width {1, 3} × job {0, 5} table
// of Work and Result frames through one reused Msg. Every frame follows
// one with a different elem, and each Msg slot's previous frame differs in
// width or job — so a field left stale in a pooled slot (a batch width
// after a width-1 frame, a job tag after a default-job frame) shows.
func TestBatchFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := &wireConn{w: wire.NewWriter(&buf)}
	var sent []any
	for _, row := range []struct{ width, job int }{{1, 5}, {3, 5}, {3, 0}, {1, 0}} {
		fw, fr := frameCase[float64](row.job, row.width)
		gw, gr := frameCase[gf.Elem](row.job, row.width)
		for _, m := range []any{fw, gw, fr, gr} {
			if err := sendFrame(c, m); err != nil {
				t.Fatal(err)
			}
			sent = append(sent, m)
		}
	}
	tc := &wireConn{w: wire.NewWriter(io.Discard), r: wire.NewReader(bytes.NewReader(buf.Bytes()))}
	msg := &Msg{}
	for i, want := range sent {
		if err := tc.recv(msg); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		var kind Kind
		var got any
		switch want.(type) {
		case *Work:
			kind, got = KindWork, &msg.Work
		case *GFWork:
			kind, got = KindGFWork, &msg.GFWork
		case *Result:
			kind, got = KindResult, &msg.Result
		case *GFResult:
			kind, got = KindGFResult, &msg.GFResult
		}
		if msg.Kind != kind || !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: kind %d, decoded %+v, sent %+v", i, msg.Kind, got, want)
		}
	}
}

// TestWorkFrameGolden pins the version-2 Work layout byte for byte —
// elem · job · iter · phase · width · x · ranges — on the commonest frame,
// a default-job width-1 float64 assignment.
func TestWorkFrameGolden(t *testing.T) {
	golden := []byte{
		0x13,       // body length 19
		0x02,       // wire.TypeWork
		0x00,       // elem: float64
		0x00,       // job 0
		0xac, 0x02, // iter 300
		0x01,                               // phase 1
		0x01,                               // width 1
		0x01, 0, 0, 0, 0, 0, 0, 0xf8, 0x3f, // x: one float64, 1.5
		0x01, 0x02, 0x09, // ranges: [2, 9)
	}
	wk := &Work{Iter: 300, Phase: 1, W: 1, X: []float64{1.5}, Ranges: []coding.Range{{Lo: 2, Hi: 9}}}
	var buf bytes.Buffer
	if err := (&wireConn{w: wire.NewWriter(&buf)}).sendWork(wk); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("work frame\n got %x\nwant %x", buf.Bytes(), golden)
	}
	tc := &wireConn{w: wire.NewWriter(io.Discard), r: wire.NewReader(bytes.NewReader(golden))}
	msg := &Msg{}
	if err := tc.recv(msg); err != nil || msg.Kind != KindWork || !reflect.DeepEqual(&msg.Work, wk) {
		t.Fatalf("golden frame decoded to kind %d %+v, err %v", msg.Kind, msg.Work, err)
	}
}

// hostileFrame hand-builds a Work or Result frame with arbitrary elem,
// job, width and element-count fields, no ranges and no payload bytes
// behind the count.
func hostileFrame(tb testing.TB, typ wire.Type, elem, job, width int, count uint64) []byte {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	w.Begin(typ)
	w.Int(elem)
	w.Int(job)
	w.Int(0) // iter
	w.Int(0) // phase
	if typ == wire.TypeResult {
		w.Int(0)     // worker
		w.Uvarint(0) // partial
		w.Uvarint(0) // nanos
		w.Int(width)
		w.Int(0) // no ranges
		w.Uvarint(count)
	} else {
		w.Int(width)
		w.Uvarint(count)
		w.Int(0) // no ranges
	}
	if err := w.End(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// recvFrame decodes the first frame of data through a fresh Msg.
func recvFrame(data []byte) error {
	tc := &wireConn{w: wire.NewWriter(io.Discard), r: wire.NewReader(bytes.NewReader(data))}
	return tc.recv(&Msg{})
}

// TestBatchFrameHostileWidths pins the header guards of the Work and
// Result frames: a width outside [1, maxBatchWidth], an elem other than
// float64 or GF, or a job above maxJobID is a protocol error, decoded into
// nothing. The bounds themselves are legal.
func TestBatchFrameHostileWidths(t *testing.T) {
	for _, typ := range []wire.Type{wire.TypeWork, wire.TypeResult} {
		for _, tc := range []struct {
			elem, job, width int
			ok               bool
		}{
			{0, 0, 1, true},
			{1, 0, 1, true},
			{1, maxJobID, maxBatchWidth, true},
			{0, 0, 0, false},
			{1, 0, 0, false},
			{0, 0, maxBatchWidth + 1, false},
			{1, 0, 1 << 30, false},
			{2, 0, 1, false},
			{255, 0, 1, false},
			{0, maxJobID + 1, 1, false},
		} {
			err := recvFrame(hostileFrame(t, typ, tc.elem, tc.job, tc.width, 0))
			if (err == nil) != tc.ok {
				t.Errorf("type %d elem %d job %d width %d: err %v, want ok=%v", typ, tc.elem, tc.job, tc.width, err, tc.ok)
			}
		}
	}
}

// checkHostileElementCount declares a value count the frame cannot hold
// on elem's Work and Result frames, width 1 and batched: the
// division-based guard must reject it before sizing anything.
func checkHostileElementCount(t *testing.T, elem wire.Elem) {
	for _, typ := range []wire.Type{wire.TypeWork, wire.TypeResult} {
		for _, width := range []int{1, 4} {
			if err := recvFrame(hostileFrame(t, typ, int(elem), 0, width, 1<<40)); err == nil {
				t.Errorf("type %d elem %d width %d: hostile element count decoded without error", typ, elem, width)
			}
		}
	}
}

// TestBatchFrameHostileElementCount runs the hostile count on the float64
// frames; TestGFResultHostileElementCount runs it on the GF ones.
func TestBatchFrameHostileElementCount(t *testing.T) {
	checkHostileElementCount(t, wire.ElemFloat64)
}

// TestBatchGatherAllLanesOrNothing pins the master-side dedup contract: a
// result whose value count is not rows×width contributes nothing (no row
// may be marked covered by a frame missing lanes), a result whose width
// disagrees with the round is rejected wholesale, and a correct frame
// then advances coverage normally.
func TestBatchGatherAllLanesOrNothing(t *testing.T) {
	m := &Master{cfg: MasterConfig{ReuseRound: true}}
	ws := &m.def.float.round
	ws.begin(3, 4, 2, 2)
	// 4 rows at width 2 need 8 values; 7 is a missing lane.
	bad := &Result{Worker: 0, RowWidth: 2, Ranges: []coding.Range{{Lo: 0, Hi: 4}}, Values: make([]float64, 7)}
	if err := ws.addResult(bad, time.Millisecond); err == nil {
		t.Fatal("short batched result accepted")
	}
	if ws.Needed != 4 {
		t.Fatalf("rejected result advanced coverage: needed=%d, want 4", ws.Needed)
	}
	for _, c := range ws.Cov {
		if c != 0 {
			t.Fatal("rejected result marked rows covered")
		}
	}
	// A width-1 result in a width-2 round is rejected outright.
	wrong := &Result{Worker: 1, RowWidth: 1, Ranges: []coding.Range{{Lo: 0, Hi: 4}}, Values: make([]float64, 4)}
	if err := ws.addResult(wrong, time.Millisecond); err == nil {
		t.Fatal("width-mismatched result accepted")
	}
	for _, c := range ws.Cov {
		if c != 0 {
			t.Fatal("width-mismatched result marked rows covered")
		}
	}
	// Correct frames from two workers complete coverage at k=2.
	for _, wk := range []int{0, 2} {
		good := &Result{Worker: wk, RowWidth: 2, Ranges: []coding.Range{{Lo: 0, Hi: 4}}, Values: make([]float64, 8)}
		if err := ws.addResult(good, time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if ws.Needed != 0 {
		t.Fatalf("correct batched results did not complete coverage: needed=%d", ws.Needed)
	}
}

// TestRunRoundBatchValidatesArgs pins the public API guard: widths
// outside [1, maxBatchWidth] (a RoundSpec Width of 0 reads as 1) and xs
// lengths that do not divide by the width are errors before any network
// traffic.
func TestRunRoundBatchValidatesArgs(t *testing.T) {
	m := &Master{}
	plan := &sched.Plan{BlockRows: 1, Assignments: [][]coding.Range{{{Lo: 0, Hi: 1}}}}
	if _, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{X: make([]float64, 3), Width: 2, Plan: plan, K: 1, TimeoutFrac: 1.0}); err == nil {
		t.Fatal("xs length not divisible by width accepted")
	}
	if _, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[float64]{Width: -1, Plan: plan, K: 1, TimeoutFrac: 1.0}); err == nil {
		t.Fatal("width -1 accepted")
	}
	if _, _, err := Run(context.Background(), m.DefaultJob(), RoundSpec[gf.Elem]{X: make([]gf.Elem, 4), Width: maxBatchWidth + 1, Plan: plan, K: 1, TimeoutFrac: 1.0}); err == nil {
		t.Fatal("oversized width accepted")
	}
}

// FuzzBatchResultFrame feeds arbitrary byte streams to the master-side
// decoder, seeded with Work and Result frames of both elems × width
// {1, 2} × job {0, 3}, their truncations and hostile width, elem, job and
// count fields. Every Result frame carries a width, so this is the one
// target over the whole frame family; FuzzGFResultFrame reruns the same
// checks from a GF-only corpus.
func FuzzBatchResultFrame(f *testing.F) {
	for _, job := range []int{0, 3} {
		for _, width := range []int{1, 2} {
			var buf bytes.Buffer
			c := &wireConn{w: wire.NewWriter(&buf)}
			fw, fr := frameCase[float64](job, width)
			gw, gr := frameCase[gf.Elem](job, width)
			for _, m := range []any{fw, fr, gw, gr} {
				if err := sendFrame(c, m); err != nil {
					f.Fatal(err)
				}
			}
			valid := buf.Bytes()
			f.Add(valid)
			for _, cut := range []int{1, len(valid) / 2, len(valid) - 1} {
				f.Add(append([]byte(nil), valid[:cut]...))
			}
		}
	}
	f.Add([]byte{})
	f.Add(hostileFrame(f, wire.TypeResult, 1, 0, 0, 0))
	f.Add(hostileFrame(f, wire.TypeResult, 1, 0, maxBatchWidth+1, 0))
	f.Add(hostileFrame(f, wire.TypeWork, 2, 0, 1, 0))
	f.Add(hostileFrame(f, wire.TypeResult, 0, maxJobID+1, 1, 0))
	f.Add(hostileFrame(f, wire.TypeResult, 1, 0, 4, 1<<40))
	fuzzFrameDecoder(f)
}

// fuzzFrameDecoder runs f over recv: it must terminate without panicking,
// whatever decodes must be a known kind, and every decoded Work or Result
// must carry a width in [1, maxBatchWidth] and a job ≤ maxJobID.
func fuzzFrameDecoder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tc := &wireConn{w: wire.NewWriter(io.Discard), r: wire.NewReader(bytes.NewReader(data))}
		msg := &Msg{}
		for {
			if err := tc.recv(msg); err != nil {
				return // any error ends the stream; panics fail the fuzz
			}
			job, width := 0, 1
			switch msg.Kind {
			case KindWork:
				job, width = msg.Work.Job, msg.Work.W
			case KindGFWork:
				job, width = msg.GFWork.Job, msg.GFWork.W
			case KindResult:
				job, width = msg.Result.Job, msg.Result.RowWidth
			case KindGFResult:
				job, width = msg.GFResult.Job, msg.GFResult.RowWidth
			case 0:
				t.Fatal("recv succeeded with zero kind")
			}
			if width < 1 || width > maxBatchWidth || job > maxJobID {
				t.Fatalf("kind %d decoded with width %d, job %d", msg.Kind, width, job)
			}
		}
	})
}
