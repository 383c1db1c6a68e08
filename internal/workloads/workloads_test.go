package workloads

import (
	"math"
	"testing"

	"github.com/coded-computing/s2c2/internal/mat"
)

func TestSyntheticClassificationShape(t *testing.T) {
	d := SyntheticClassification(100, 20, 1)
	if r, c := d.X.Dims(); r != 100 || c != 20 {
		t.Fatalf("shape %dx%d", r, c)
	}
	pos, neg := 0, 0
	for _, y := range d.Y {
		switch y {
		case 1:
			pos++
		case -1:
			neg++
		default:
			t.Fatalf("label %v not in {-1,+1}", y)
		}
	}
	if pos == 0 || neg == 0 {
		t.Fatal("both classes must be present")
	}
	// Same seed → same data.
	d2 := SyntheticClassification(100, 20, 1)
	if !d.X.Equal(d2.X) {
		t.Fatal("generation must be deterministic")
	}
}

func TestLogisticRegressionConverges(t *testing.T) {
	data := SyntheticClassification(300, 10, 2)
	lr := &LogisticRegression{Data: data, LR: 0.5, Lambda: 1e-4, Tol: 1e-4}
	w0 := lr.Init()
	loss0 := lr.Loss(w0)
	w, iters := RunLocal(lr, 300)
	if iters == 300 {
		t.Log("did not hit tolerance; checking loss decrease anyway")
	}
	if lr.Loss(w) >= loss0 {
		t.Fatalf("loss did not decrease: %v -> %v", loss0, lr.Loss(w))
	}
	if acc := lr.Accuracy(w); acc < 0.85 {
		t.Fatalf("accuracy %.3f too low for separable-with-noise data", acc)
	}
}

func TestSVMConverges(t *testing.T) {
	data := SyntheticClassification(300, 10, 3)
	svm := &SVM{Data: data, LR: 0.2, Lambda: 1e-3, Tol: 1e-4}
	w, _ := RunLocal(svm, 300)
	if hingeLoss(svm, w) >= hingeLoss(svm, svm.Init()) {
		t.Fatal("hinge loss did not decrease")
	}
	// Accuracy via the LR helper semantics: sign agreement.
	z := mat.MatVec(data.X, w)
	correct := 0
	for i, zi := range z {
		if (zi >= 0) == (data.Y[i] > 0) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(z)); acc < 0.85 {
		t.Fatalf("SVM accuracy %.3f too low", acc)
	}
}

func TestPageRankStochasticMatrix(t *testing.T) {
	g := PowerLawGraph(50, 4, 4)
	// Columns of the transition matrix must sum to 1.
	for j := 0; j < 50; j++ {
		s := 0.0
		for i := 0; i < 50; i++ {
			s += g.Stochastic.At(i, j)
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("column %d sums to %v", j, s)
		}
	}
}

func TestPageRankConvergesToStationary(t *testing.T) {
	g := PowerLawGraph(60, 4, 5)
	pr := &PageRank{Graph: g, Damping: 0.85, Tol: 1e-10}
	x, iters := RunLocal(pr, 500)
	if iters >= 500 {
		t.Fatal("PageRank did not converge")
	}
	// The result is a probability distribution.
	if math.Abs(mat.Norm1(x)-1) > 1e-6 {
		t.Fatalf("ranks sum to %v", mat.Norm1(x))
	}
	// And a fixed point: x == d·M·x + (1−d)/N.
	mx := mat.MatVec(g.Stochastic, x)
	for i := range x {
		want := 0.85*mx[i] + 0.15/60
		if math.Abs(x[i]-want) > 1e-6 {
			t.Fatalf("not a fixed point at %d", i)
		}
	}
}

func TestGraphLaplacianProperties(t *testing.T) {
	g := RingGraph(20)
	// Laplacian rows sum to zero and L is symmetric.
	for i := 0; i < 20; i++ {
		s := 0.0
		for j := 0; j < 20; j++ {
			s += g.Laplacian.At(i, j)
			if g.Laplacian.At(i, j) != g.Laplacian.At(j, i) {
				t.Fatal("Laplacian must be symmetric")
			}
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
	// L·1 = 0.
	ones := make([]float64, 20)
	for i := range ones {
		ones[i] = 1
	}
	if n := mat.Norm2(mat.MatVec(g.Laplacian, ones)); n > 1e-12 {
		t.Fatalf("L·1 = %v, want 0", n)
	}
}

func TestGraphFilterRunsHops(t *testing.T) {
	g := RingGraph(16)
	gf := &GraphFilter{Graph: g, Hops: 3}
	_, iters := RunLocal(gf, 100)
	if iters != 3 {
		t.Fatalf("filter ran %d hops want 3", iters)
	}
}

func TestLRPhaseWiringMatchesDirectGradient(t *testing.T) {
	// One phase round-trip: the two-phase decomposition must equal the
	// directly computed gradient.
	data := SyntheticClassification(40, 6, 6)
	lr := &LogisticRegression{Data: data, LR: 0.1, Lambda: 0, Tol: 0}
	ms := lr.Matrices()
	w := make([]float64, 6)
	for i := range w {
		w[i] = 0.1 * float64(i)
	}
	z := mat.MatVec(ms[0], lr.PhaseInput(0, w, nil))
	r := lr.PhaseInput(1, w, [][]float64{z})
	grad := mat.MatVec(ms[1], r)
	// Direct: Xᵀ(σ(Xw) − y01).
	zd := mat.MatVec(data.X, w)
	rd := make([]float64, len(zd))
	for i, zi := range zd {
		y01 := 0.0
		if data.Y[i] > 0 {
			y01 = 1
		}
		rd[i] = sigmoid(zi) - y01
	}
	want := mat.MatVec(mat.Transpose(data.X), rd)
	if !mat.VecApproxEqual(grad, want, 1e-10) {
		t.Fatal("phase decomposition disagrees with direct gradient")
	}
}

// hingeLoss returns the SVM's regularised hinge loss at w.
func hingeLoss(s *SVM, w []float64) float64 {
	z := mat.MatVec(s.Data.X, w)
	loss := 0.0
	for i, zi := range z {
		loss += math.Max(0, 1-s.Data.Y[i]*zi)
	}
	loss /= float64(len(z))
	for _, wj := range w {
		loss += 0.5 * s.Lambda * wj * wj
	}
	return loss
}
