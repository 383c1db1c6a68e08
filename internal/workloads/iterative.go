package workloads

import (
	"math"

	"github.com/coded-computing/s2c2/internal/mat"
)

// Iterative is a workload expressed as repeated coded mat-vec rounds.
// Each iteration runs one or more *phases*; phase p multiplies the fixed
// matrix Matrices()[p] by a vector derived from the current state and the
// previous phases' outputs. The driver (simulator or TCP runtime) owns
// encoding, distribution and decoding; the workload owns the math.
type Iterative interface {
	// Name identifies the workload in experiment output.
	Name() string
	// Matrices returns the per-phase data matrices, encoded once at setup.
	Matrices() []*mat.Dense
	// Init returns the initial state vector.
	Init() []float64
	// PhaseInput derives phase p's input vector from the state and the
	// outputs of phases 0..p-1 of the current iteration.
	PhaseInput(p int, state []float64, outputs [][]float64) []float64
	// Update folds the iteration's phase outputs into a new state,
	// reporting whether the workload has converged.
	Update(state []float64, outputs [][]float64) (next []float64, done bool)
}

// RunLocal executes an Iterative workload without any cluster — the
// ground-truth oracle used by tests and by timing-only simulations.
// Phase outputs are computed into per-phase buffers reused across
// iterations; the returned state is a fresh copy.
func RunLocal(w Iterative, maxIter int) ([]float64, int) {
	ms := w.Matrices()
	state := w.Init()
	outputs := make([][]float64, len(ms))
	iters := maxIter
	for iter := 0; iter < maxIter; iter++ {
		for p := range ms {
			in := w.PhaseInput(p, state, outputs[:p])
			if cap(outputs[p]) < ms[p].Rows() {
				outputs[p] = make([]float64, ms[p].Rows())
			}
			outputs[p] = outputs[p][:ms[p].Rows()]
			mat.MatVecInto(ms[p], in, outputs[p])
		}
		var done bool
		state, done = w.Update(state, outputs)
		if done {
			iters = iter + 1
			break
		}
	}
	return mat.CloneVec(state), iters
}

// stepBuffers is the reusable iterate storage of a gradient-style
// workload: Update writes the next state into whichever of the two
// buffers the current state does not occupy, so states ping-pong without
// per-iteration allocation. PhaseInput scratch rides along.
type stepBuffers struct {
	a, b    []float64
	phaseIn []float64
}

// next returns a buffer of length n guaranteed not to alias state.
func (s *stepBuffers) next(state []float64, n int) []float64 {
	if cap(s.a) < n {
		s.a = make([]float64, n)
	}
	if cap(s.b) < n {
		s.b = make([]float64, n)
	}
	if len(state) > 0 && len(s.a) > 0 && &s.a[0] == &state[0] {
		return s.b[:n]
	}
	return s.a[:n]
}

// input returns the PhaseInput scratch buffer resized to n.
func (s *stepBuffers) input(n int) []float64 {
	if cap(s.phaseIn) < n {
		s.phaseIn = make([]float64, n)
	}
	return s.phaseIn[:n]
}

// LogisticRegression is batch gradient descent for ℓ2-regularised
// logistic regression. Phase 0 computes z = X·w, phase 1 computes the
// gradient Xᵀ·r where r is the per-sample residual.
type LogisticRegression struct {
	Data *Classification
	// LR is the learning rate; Lambda the ℓ2 penalty; Tol the gradient
	// norm that stops the descent.
	LR, Lambda, Tol float64

	xt  *mat.Dense
	buf stepBuffers
}

// Name implements Iterative.
func (l *LogisticRegression) Name() string { return "logistic-regression" }

// Matrices returns X and Xᵀ (both encoded and distributed by the driver).
func (l *LogisticRegression) Matrices() []*mat.Dense {
	if l.xt == nil {
		l.xt = mat.Transpose(l.Data.X)
	}
	return []*mat.Dense{l.Data.X, l.xt}
}

// Init implements Iterative.
func (l *LogisticRegression) Init() []float64 {
	return make([]float64, l.Data.X.Cols())
}

// PhaseInput implements Iterative.
func (l *LogisticRegression) PhaseInput(p int, state []float64, outputs [][]float64) []float64 {
	if p == 0 {
		return state // X·w
	}
	// Phase 1 input: residual r_i = σ(z_i) − y01_i, in reused scratch.
	z := outputs[0]
	r := l.buf.input(len(z))
	for i, zi := range z {
		y01 := 0.0
		if l.Data.Y[i] > 0 {
			y01 = 1
		}
		r[i] = sigmoid(zi) - y01
	}
	return r
}

// Update applies the gradient step, writing the new iterate into
// preallocated ping-pong state storage.
func (l *LogisticRegression) Update(state []float64, outputs [][]float64) ([]float64, bool) {
	grad := outputs[1]
	m := float64(l.Data.X.Rows())
	next := l.buf.next(state, len(state))
	gn := 0.0
	for j := range next {
		g := grad[j]/m + l.Lambda*state[j]
		next[j] = state[j] - l.LR*g
		gn += g * g
	}
	return next, math.Sqrt(gn) < l.Tol
}

// Loss returns the regularised negative log-likelihood at w.
func (l *LogisticRegression) Loss(w []float64) float64 {
	z := mat.MatVec(l.Data.X, w)
	loss := 0.0
	for i, zi := range z {
		y01 := 0.0
		if l.Data.Y[i] > 0 {
			y01 = 1
		}
		// Numerically stable log(1+e^z) − y·z.
		loss += math.Max(zi, 0) - zi*y01 + math.Log1p(math.Exp(-math.Abs(zi)))
	}
	loss /= float64(len(z))
	for _, wj := range w {
		loss += 0.5 * l.Lambda * wj * wj
	}
	return loss
}

// Accuracy returns the training accuracy of w.
func (l *LogisticRegression) Accuracy(w []float64) float64 {
	z := mat.MatVec(l.Data.X, w)
	correct := 0
	for i, zi := range z {
		if (zi >= 0) == (l.Data.Y[i] > 0) {
			correct++
		}
	}
	return float64(correct) / float64(len(z))
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// SVM is batch subgradient descent for the ℓ2-regularised hinge loss.
// Its phase structure matches LogisticRegression.
type SVM struct {
	Data            *Classification
	LR, Lambda, Tol float64

	xt  *mat.Dense
	buf stepBuffers
}

// Name implements Iterative.
func (s *SVM) Name() string { return "svm" }

// Matrices implements Iterative.
func (s *SVM) Matrices() []*mat.Dense {
	if s.xt == nil {
		s.xt = mat.Transpose(s.Data.X)
	}
	return []*mat.Dense{s.Data.X, s.xt}
}

// Init implements Iterative.
func (s *SVM) Init() []float64 { return make([]float64, s.Data.X.Cols()) }

// PhaseInput implements Iterative.
func (s *SVM) PhaseInput(p int, state []float64, outputs [][]float64) []float64 {
	if p == 0 {
		return state
	}
	z := outputs[0]
	r := s.buf.input(len(z))
	for i, zi := range z {
		r[i] = 0
		if s.Data.Y[i]*zi < 1 {
			r[i] = -s.Data.Y[i] // hinge subgradient
		}
	}
	return r
}

// Update applies the subgradient step into ping-pong state storage.
func (s *SVM) Update(state []float64, outputs [][]float64) ([]float64, bool) {
	grad := outputs[1]
	m := float64(s.Data.X.Rows())
	next := s.buf.next(state, len(state))
	gn := 0.0
	for j := range next {
		g := grad[j]/m + s.Lambda*state[j]
		next[j] = state[j] - s.LR*g
		gn += g * g
	}
	return next, math.Sqrt(gn) < s.Tol
}

// PageRank is power iteration on the damped column-stochastic transition
// matrix: x ← d·M·x + (1−d)/N.
type PageRank struct {
	Graph   *Graph
	Damping float64
	Tol     float64

	buf stepBuffers
}

// Name implements Iterative.
func (p *PageRank) Name() string { return "pagerank" }

// Matrices implements Iterative.
func (p *PageRank) Matrices() []*mat.Dense { return []*mat.Dense{p.Graph.Stochastic} }

// Init returns the uniform distribution.
func (p *PageRank) Init() []float64 {
	n := p.Graph.Nodes
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	return x
}

// PhaseInput implements Iterative.
func (p *PageRank) PhaseInput(_ int, state []float64, _ [][]float64) []float64 { return state }

// Update applies damping and checks the ℓ1 residual, writing the next
// distribution into ping-pong state storage.
func (p *PageRank) Update(state []float64, outputs [][]float64) ([]float64, bool) {
	mx := outputs[0]
	n := float64(p.Graph.Nodes)
	next := p.buf.next(state, len(mx))
	diff := 0.0
	for i := range next {
		next[i] = p.Damping*mx[i] + (1-p.Damping)/n
		diff += math.Abs(next[i] - state[i])
	}
	return next, diff < p.Tol
}

// GraphFilter applies Hops iterations of the combinatorial Laplacian —
// the n-hop filtering operation of §6.3.
type GraphFilter struct {
	Graph *Graph
	Hops  int

	done int
	buf  stepBuffers
}

// Name implements Iterative.
func (g *GraphFilter) Name() string { return "graph-filter" }

// Matrices implements Iterative.
func (g *GraphFilter) Matrices() []*mat.Dense { return []*mat.Dense{g.Graph.Laplacian} }

// Init returns an impulse signal at node 0.
func (g *GraphFilter) Init() []float64 {
	x := make([]float64, g.Graph.Nodes)
	x[0] = 1
	return x
}

// PhaseInput implements Iterative.
func (g *GraphFilter) PhaseInput(_ int, state []float64, _ [][]float64) []float64 { return state }

// Update stops after Hops applications. The filtered signal is written
// into ping-pong state storage.
func (g *GraphFilter) Update(state []float64, outputs [][]float64) ([]float64, bool) {
	g.done++
	out := g.buf.next(state, len(outputs[0]))
	copy(out, outputs[0])
	// Normalise to keep magnitudes bounded across hops.
	if n := mat.NormInf(out); n > 0 {
		mat.ScaleVec(1/n, out)
	}
	return out, g.done >= g.Hops
}
