// Hessian computation with polynomial codes + S2C2 — the paper's §5/§7.2.3
// extension beyond matrix–vector multiplication.
//
// A second-order optimiser needs H = Aᵀ·diag(s)·A every iteration, where
// s depends on the current model. A is column-split into a=3 blocks,
// polynomial-encoded onto 12 workers (any a·b = 9 of 12 rows decode), and
// S2C2 assigns each worker a row range of its product block proportional
// to its speed — so the partial straggler contributes partial work
// instead of being discarded (Figure 5's scenario, at a=b=3). It exits
// non-zero if the decoded Hessian strays from the local one by more than
// 1e-9 of its largest entry.
//
//	go run ./examples/hessian
package main

import (
	"fmt"
	"log"
	"math"

	s2c2 "github.com/coded-computing/s2c2"
)

func main() {
	const (
		n, a, b = 12, 3, 3
		rows    = 240
		cols    = 90
	)
	data := s2c2.NewClassificationDataset(rows, cols, 5)

	code, err := s2c2.NewPolyCode(n, a, b)
	if err != nil {
		log.Fatal(err)
	}
	enc, err := code.EncodeHessian(data.X)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("polynomial code: %d workers, %dx%d block grid, any %d decode\n",
		n, a, b, code.RecoveryThreshold())
	fmt.Printf("each worker holds encoded partitions of %d columns (of %d total)\n",
		enc.BlockColsA, cols)

	// Speeds: 11 healthy workers, worker 11 a partial straggler at 1/3
	// speed. General S2C2 gives it a proportionally smaller row range.
	speeds := make([]float64, n)
	for i := range speeds {
		speeds[i] = 1
	}
	speeds[11] = 1.0 / 3
	strat := &s2c2.GeneralS2C2{
		N: n, K: code.RecoveryThreshold(),
		BlockRows: enc.BlockColsA, Granularity: enc.BlockColsA,
	}
	plan, err := strat.Plan(speeds)
	if err != nil {
		log.Fatal(err)
	}
	for w := 0; w < n; w++ {
		fmt.Printf("worker %2d (speed %.2f): %d/%d product rows\n",
			w, speeds[w], plan.RowsFor(w), enc.BlockColsA)
	}

	// The diag(s) vector of a logistic-regression Hessian: σ(z)(1−σ(z)).
	d := make([]float64, rows)
	for i := range d {
		d[i] = 0.25 // w = 0 → σ(0)(1−σ(0))
	}
	var partials []*s2c2.Partial
	for w := 0; w < n; w++ {
		if plan.RowsFor(w) > 0 {
			partials = append(partials, enc.WorkerCompute(w, d, plan.Assignments[w]))
		}
	}
	h, err := enc.Decode(partials)
	if err != nil {
		log.Fatal(err)
	}

	// Verify against the locally computed Hessian: the largest entry
	// difference must stay within relTol of the largest local entry.
	const relTol = 1e-9
	want := localHessian(data, d)
	maxDiff, maxEntry := 0.0, 0.0
	for i := 0; i < cols; i++ {
		for j := 0; j < cols; j++ {
			maxDiff = math.Max(maxDiff, math.Abs(h.At(i, j)-want.At(i, j)))
			maxEntry = math.Max(maxEntry, math.Abs(want.At(i, j)))
		}
	}
	fmt.Printf("\ndecoded %dx%d Hessian; max |coded − local| entry difference: %.2e\n",
		cols, cols, maxDiff)
	if maxDiff > relTol*maxEntry {
		log.Fatalf("coded Hessian differs from the local one by %.2e, more than %.0e × max |local entry| %.2e",
			maxDiff, relTol, maxEntry)
	}
}

func localHessian(data *s2c2.ClassificationDataset, d []float64) *s2c2.Dense {
	at := s2c2.Transpose(data.X)
	// Aᵀ·diag(d)·A computed column by column through the public mat-vec.
	cols := data.X.Cols()
	h := s2c2.NewDense(cols, cols)
	for j := 0; j < cols; j++ {
		e := make([]float64, cols)
		e[j] = 1
		ae := s2c2.MatVec(data.X, e)
		for i := range ae {
			ae[i] *= d[i]
		}
		col := s2c2.MatVec(at, ae)
		for i := 0; i < cols; i++ {
			h.Set(i, j, col[i])
		}
	}
	return h
}
