package predict

import (
	"fmt"
	"math"
	"math/rand"
)

// Gate indices into the stacked LSTM parameter blocks.
const (
	gateI = iota // input gate
	gateF        // forget gate
	gateO        // output gate
	gateG        // candidate cell
	numGates
)

// LSTMConfig parameterises the speed-prediction LSTM. The zero value is
// not usable; call DefaultLSTMConfig for the paper's architecture.
type LSTMConfig struct {
	Hidden   int     // hidden-state dimension (paper: 4)
	Window   int     // truncated-BPTT window length
	Epochs   int     // passes over the training windows
	LR       float64 // Adam learning rate
	Seed     int64   // weight-init / shuffle seed
	ClipNorm float64 // global gradient-norm clip (0 = off)
}

// DefaultLSTMConfig returns the §6.1 architecture: a single LSTM layer
// with 1-dimensional input and output and a 4-dimensional hidden state.
func DefaultLSTMConfig() LSTMConfig {
	return LSTMConfig{Hidden: 4, Window: 16, Epochs: 60, LR: 0.02, Seed: 1, ClipNorm: 1}
}

// LSTM is a one-layer scalar-in/scalar-out LSTM forecaster trained with
// truncated back-propagation through time and Adam.
type LSTM struct {
	cfg LSTMConfig

	// Parameters. wx[g][h]: input weights; wh[g][h*H+h']: recurrent
	// weights; b[g][h]: biases; wy[h], by: output head.
	wx, wh, b [numGates][]float64
	wy        []float64
	by        float64

	adam *adamState
	fits int // completed Fit calls; carried stream state is per fit

	// scratch is the state pair the stateless Predict runs in.
	scratch cellPair
}

// NewLSTM builds an untrained LSTM.
func NewLSTM(cfg LSTMConfig) *LSTM {
	if cfg.Hidden <= 0 || cfg.Window < 2 || cfg.Epochs < 1 || cfg.LR <= 0 {
		panic(fmt.Sprintf("predict: bad LSTM config %+v", cfg))
	}
	m := &LSTM{cfg: cfg}
	rng := rand.New(rand.NewSource(cfg.Seed))
	h := cfg.Hidden
	scale := 1 / math.Sqrt(float64(h))
	for g := 0; g < numGates; g++ {
		m.wx[g] = randSlice(h, scale, rng)
		m.wh[g] = randSlice(h*h, scale, rng)
		m.b[g] = make([]float64, h)
	}
	// Forget-gate bias init of 1 is the standard trick for gradient flow.
	for i := range m.b[gateF] {
		m.b[gateF][i] = 1
	}
	m.wy = randSlice(h, scale, rng)
	m.adam = newAdamState(m.numParams(), cfg.LR)
	m.scratch = newCellPair(h)
	return m
}

func randSlice(n int, scale float64, rng *rand.Rand) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = scale * (2*rng.Float64() - 1)
	}
	return s
}

// Name implements Forecaster.
func (m *LSTM) Name() string { return fmt.Sprintf("lstm(h=%d)", m.cfg.Hidden) }

func (m *LSTM) numParams() int {
	h := m.cfg.Hidden
	return numGates*(h+h*h+h) + h + 1
}

// flatten copies parameters into a single vector (for Adam and tests).
func (m *LSTM) flatten(dst []float64) {
	at := 0
	for g := 0; g < numGates; g++ {
		at += copy(dst[at:], m.wx[g])
		at += copy(dst[at:], m.wh[g])
		at += copy(dst[at:], m.b[g])
	}
	at += copy(dst[at:], m.wy)
	dst[at] = m.by
}

func (m *LSTM) unflatten(src []float64) {
	at := 0
	for g := 0; g < numGates; g++ {
		at += copy(m.wx[g], src[at:])
		at += copy(m.wh[g], src[at:])
		at += copy(m.b[g], src[at:])
	}
	at += copy(m.wy, src[at:])
	m.by = src[at]
}

// cellState holds one cell step's activations: (h, c) is what the next
// step consumes, the rest is what BPTT needs to differentiate the step.
// The caller owns it; step only writes into it.
type cellState struct {
	x          float64
	i, f, o, g []float64
	c, h, tc   []float64 // cell, hidden, tanh(cell)
}

// carve cuts the next h-element vector off the front of *buf.
func carve(buf *[]float64, h int) []float64 {
	v := (*buf)[:h:h]
	*buf = (*buf)[h:]
	return v
}

// cellStateOver carves a cell state for hidden size h out of buf's first
// 7h elements.
func cellStateOver(buf []float64, h int) cellState {
	b := &buf
	return cellState{i: carve(b, h), f: carve(b, h), o: carve(b, h), g: carve(b, h),
		c: carve(b, h), h: carve(b, h), tc: carve(b, h)}
}

func newCellState(h int) cellState { return cellStateOver(make([]float64, 7*h), h) }

// step runs one LSTM cell update from (hPrev, cPrev) on input x, writing
// the activations into st. st must not alias the state hPrev and cPrev
// belong to: every row reads all of hPrev.
//
//s2c2:noalloc
func (m *LSTM) step(st *cellState, x float64, hPrev, cPrev []float64) {
	h := m.cfg.Hidden
	st.x = x
	for j := 0; j < h; j++ {
		var pre [numGates]float64
		for g := 0; g < numGates; g++ {
			s := m.wx[g][j]*x + m.b[g][j]
			row := m.wh[g][j*h : (j+1)*h]
			for jj, hv := range hPrev {
				s += row[jj] * hv
			}
			pre[g] = s
		}
		st.i[j] = sigmoid(pre[gateI])
		st.f[j] = sigmoid(pre[gateF])
		st.o[j] = sigmoid(pre[gateO])
		st.g[j] = math.Tanh(pre[gateG])
		st.c[j] = st.f[j]*cPrev[j] + st.i[j]*st.g[j]
		st.tc[j] = math.Tanh(st.c[j])
		st.h[j] = st.o[j] * st.tc[j]
	}
}

// output applies the scalar head to a hidden state.
//
//s2c2:noalloc
func (m *LSTM) output(h []float64) float64 {
	y := m.by
	for j, v := range h {
		y += m.wy[j] * v
	}
	return y
}

// cellPair is the two states a forward-only run ping-pongs between, and
// which of them is current.
type cellPair struct {
	st  [2]cellState
	cur int
}

func newCellPair(h int) cellPair {
	buf := make([]float64, 14*h)
	return cellPair{st: [2]cellState{cellStateOver(buf, h), cellStateOver(buf[7*h:], h)}}
}

// reset returns the pair to the zero state every forecast starts from.
//
//s2c2:noalloc
func (p *cellPair) reset() {
	clear(p.st[0].h)
	clear(p.st[0].c)
	p.cur = 0
}

// run advances the pair one cell step per element of xs, each divided by
// scale on the way in. It is the only forward-only loop: the stateless
// Predict runs it from reset over a whole history, a stream runs it over
// the observations it has not consumed yet.
//
//s2c2:noalloc
func (m *LSTM) run(p *cellPair, xs []float64, scale float64) {
	for _, v := range xs {
		from, to := &p.st[p.cur], &p.st[1-p.cur]
		m.step(to, v/scale, from.h, from.c)
		p.cur = 1 - p.cur
	}
}

// forecast rescales the head's output on the pair's current state.
//
//s2c2:noalloc
func (m *LSTM) forecast(p *cellPair, scale float64) float64 {
	y := m.output(p.st[p.cur].h) * scale
	if y < 0 {
		y = 0
	}
	return y
}

// tail bounds a forecast's work: only the trailing 4·Window observations
// are replayed (older ones matter immaterially), though the scale is the
// maximum of the whole history.
//
//s2c2:noalloc
func (m *LSTM) tail(history []float64) []float64 {
	if bound := 4 * m.cfg.Window; len(history) > bound {
		return history[len(history)-bound:]
	}
	return history
}

// Predict runs the trained cell over the (max-normalised) history from a
// zero state and rescales the one-step-ahead output. It allocates nothing
// and uses scratch owned by the model, so one LSTM must not be asked for
// forecasts from two goroutines at once.
//
//s2c2:noalloc
func (m *LSTM) Predict(history []float64) float64 {
	if len(history) == 0 {
		return 0
	}
	scale := maxScale(history)
	m.scratch.reset()
	m.run(&m.scratch, m.tail(history), scale)
	return m.forecast(&m.scratch, scale)
}

// lstmStream is one series' carried cell state: Predict(history) without
// re-running the cell over observations already consumed.
//
// Exactness: Predict(history) feeds tail(history)[i]/maxScale(history)
// through the cell from a zero state. While the tail is the whole series
// (len(tail) == total) and neither the scale nor the model has changed,
// one step per new observation continues that very sequence of
// operations; otherwise the state is rebuilt by replaying the tail, so
// every forecast is the stateless one bit for bit.
type lstmStream struct {
	m        *LSTM
	pair     cellPair
	consumed int     // observations folded into pair
	scale    float64 // the scale they were divided by (0 before the first)
	fits     int     // the model's fit the state was computed under
}

func (m *LSTM) newStream() stream {
	return &lstmStream{m: m, pair: newCellPair(m.cfg.Hidden)}
}

// predict implements stream.
//
//s2c2:noalloc
func (s *lstmStream) predict(history []float64, total int) float64 {
	if len(history) == 0 {
		return 0
	}
	scale, tail := maxScale(history), s.m.tail(history)
	if len(tail) != total || scale != s.scale || s.fits != s.m.fits {
		s.pair.reset()
		s.consumed = 0
	}
	s.m.run(&s.pair, tail[s.consumed:], scale)
	s.consumed, s.scale, s.fits = total, scale, s.m.fits
	return s.m.forecast(&s.pair, scale)
}

// bpttWorkspace is what one forward+backward pass over a window needs
// besides the parameters: a cell state per step and the backward pass's
// running derivatives. Fit allocates one and every window of every epoch
// reuses it.
type bpttWorkspace struct {
	states         []cellState // grown to the longest window seen
	preds          []float64
	zero           []float64 // h and c before step 0; never written
	dh             []float64
	dhNext, dcNext []float64 // ∂loss/∂(h, c) flowing in from step t+1
	dhPrev, dcPrev []float64 // … and out to step t−1
}

func (m *LSTM) newBPTTWorkspace() *bpttWorkspace {
	h := m.cfg.Hidden
	buf := make([]float64, 6*h)
	b := &buf
	return &bpttWorkspace{
		zero: carve(b, h), dh: carve(b, h),
		dhNext: carve(b, h), dcNext: carve(b, h),
		dhPrev: carve(b, h), dcPrev: carve(b, h),
	}
}

// grow makes room for a T-step window.
func (ws *bpttWorkspace) grow(T, h int) {
	for len(ws.states) < T {
		ws.states = append(ws.states, newCellState(h))
	}
	if cap(ws.preds) < T {
		ws.preds = make([]float64, T)
	}
}

// lossAndGrad runs forward+BPTT on one window. xs has length T+1: inputs
// are xs[0..T-1], targets xs[1..T]. It returns the mean squared error and
// adds the gradient to grad (flattened parameter layout), which the
// caller zeroes.
func (m *LSTM) lossAndGrad(xs []float64, grad []float64, ws *bpttWorkspace) float64 {
	h := m.cfg.Hidden
	T := len(xs) - 1
	ws.grow(T, h)
	states, preds := ws.states[:T], ws.preds[:T]
	hPrev, cPrev := ws.zero, ws.zero
	loss := 0.0
	for t := 0; t < T; t++ {
		st := &states[t]
		m.step(st, xs[t], hPrev, cPrev)
		preds[t] = m.output(st.h)
		d := preds[t] - xs[t+1]
		loss += d * d
		hPrev, cPrev = st.h, st.c
	}
	loss /= float64(T)

	// Views of grad mirroring the parameter layout (see flatten).
	var gwx, gwh, gb [numGates][]float64
	at := 0
	for g := 0; g < numGates; g++ {
		gwx[g], at = grad[at:at+h], at+h
		gwh[g], at = grad[at:at+h*h], at+h*h
		gb[g], at = grad[at:at+h], at+h
	}
	gwy, gby := grad[at:at+h], &grad[at+h]

	dh, dhNext, dcNext, dhPrev, dcPrev := ws.dh, ws.dhNext, ws.dcNext, ws.dhPrev, ws.dcPrev
	clear(dhNext)
	clear(dcNext)
	for t := T - 1; t >= 0; t-- {
		st := &states[t]
		dy := 2 * (preds[t] - xs[t+1]) / float64(T)
		*gby += dy
		for j := 0; j < h; j++ {
			gwy[j] += dy * st.h[j]
			dh[j] = dhNext[j] + dy*m.wy[j]
		}
		hPrevT, cPrevT := ws.zero, ws.zero
		if t > 0 {
			hPrevT, cPrevT = states[t-1].h, states[t-1].c
		}
		clear(dhPrev)
		for j := 0; j < h; j++ {
			do := dh[j] * st.tc[j]
			dc := dh[j]*st.o[j]*(1-st.tc[j]*st.tc[j]) + dcNext[j]
			df := dc * cPrevT[j]
			di := dc * st.g[j]
			dg := dc * st.i[j]
			dcPrev[j] = dc * st.f[j]
			var da [numGates]float64
			da[gateI] = di * st.i[j] * (1 - st.i[j])
			da[gateF] = df * st.f[j] * (1 - st.f[j])
			da[gateO] = do * st.o[j] * (1 - st.o[j])
			da[gateG] = dg * (1 - st.g[j]*st.g[j])
			for g := 0; g < numGates; g++ {
				gwx[g][j] += da[g] * st.x
				gb[g][j] += da[g]
				row := m.wh[g][j*h : (j+1)*h]
				grow := gwh[g][j*h : (j+1)*h]
				for jj := 0; jj < h; jj++ {
					grow[jj] += da[g] * hPrevT[jj]
					dhPrev[jj] += da[g] * row[jj]
				}
			}
		}
		dhNext, dhPrev = dhPrev, dhNext
		dcNext, dcPrev = dcPrev, dcNext
	}
	return loss
}

// Fit trains the LSTM on the given series (normalised per-series by max)
// using sliding windows of cfg.Window. Its allocations are the normalised
// copy of the series, the window list and one BPTT workspace — none of
// them grows with Epochs.
func (m *LSTM) Fit(series [][]float64) error {
	total := 0
	for _, s := range series {
		total += len(s)
	}
	flat := make([]float64, 0, total)
	var windows [][]float64
	w := m.cfg.Window
	for _, s := range series {
		scale := maxScale(s)
		norm := flat[len(flat) : len(flat)+len(s)]
		flat = flat[:len(flat)+len(s)]
		for i, v := range s {
			norm[i] = v / scale
		}
		if len(norm) < w+1 {
			if len(norm) >= 3 {
				windows = append(windows, norm)
			}
			continue
		}
		for at := 0; at+w+1 <= len(norm); at += w / 2 {
			windows = append(windows, norm[at:at+w+1])
		}
	}
	if len(windows) == 0 {
		return fmt.Errorf("predict: no training windows (series too short for window %d)", m.cfg.Window)
	}
	rng := rand.New(rand.NewSource(m.cfg.Seed + 17))
	params := make([]float64, m.numParams())
	grad := make([]float64, m.numParams())
	perm := make([]int, len(windows))
	ws := m.newBPTTWorkspace()
	for epoch := 0; epoch < m.cfg.Epochs; epoch++ {
		permInto(perm, rng)
		for _, wi := range perm {
			clear(grad)
			m.lossAndGrad(windows[wi], grad, ws)
			if m.cfg.ClipNorm > 0 {
				clipNorm(grad, m.cfg.ClipNorm)
			}
			m.flatten(params)
			m.adam.update(params, grad)
			m.unflatten(params)
		}
	}
	m.fits++
	return nil
}

// permInto is rand.Perm writing into p: the same draws in the same order
// (math/rand's generators and algorithms are frozen), so a fitted model
// does not depend on which of the two shuffled its windows.
func permInto(p []int, rng *rand.Rand) {
	for i := range p {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func clipNorm(g []float64, max float64) {
	s := 0.0
	for _, v := range g {
		s += v * v
	}
	n := math.Sqrt(s)
	if n <= max || n == 0 {
		return
	}
	f := max / n
	for i := range g {
		g[i] *= f
	}
}

// adamState implements the Adam optimiser over a flat parameter vector.
type adamState struct {
	lr, b1, b2, eps float64
	m, v            []float64
	t               int
}

func newAdamState(n int, lr float64) *adamState {
	return &adamState{lr: lr, b1: 0.9, b2: 0.999, eps: 1e-8,
		m: make([]float64, n), v: make([]float64, n)}
}

func (a *adamState) update(params, grad []float64) {
	a.t++
	c1 := 1 - math.Pow(a.b1, float64(a.t))
	c2 := 1 - math.Pow(a.b2, float64(a.t))
	for i, g := range grad {
		a.m[i] = a.b1*a.m[i] + (1-a.b1)*g
		a.v[i] = a.b2*a.v[i] + (1-a.b2)*g*g
		params[i] -= a.lr * (a.m[i] / c1) / (math.Sqrt(a.v[i]/c2) + a.eps)
	}
}
