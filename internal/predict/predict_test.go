package predict

import (
	"math"
	"math/rand"
	"testing"

	"github.com/coded-computing/s2c2/internal/trace"
)

func TestMAPE(t *testing.T) {
	got := MAPE([]float64{110, 90}, []float64{100, 100})
	if math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("MAPE = %v want 0.1", got)
	}
	if MAPE([]float64{1}, []float64{0}) != 0 {
		t.Fatal("zero actuals must be skipped")
	}
}

func TestLastValue(t *testing.T) {
	var lv LastValue
	if err := lv.Fit(nil); err != nil {
		t.Fatal(err)
	}
	if lv.Predict([]float64{1, 2, 3}) != 3 {
		t.Fatal("LastValue should return the last observation")
	}
	if lv.Predict(nil) != 0 {
		t.Fatal("empty history should predict 0")
	}
}

func TestAR1RecoversKnownProcess(t *testing.T) {
	// Synthesize x(t+1) = 0.3 + 0.6 x(t) + tiny noise; OLS must recover
	// the coefficients closely (series already in [0,1] so normalisation
	// by max is nearly identity).
	rng := rand.New(rand.NewSource(1))
	series := make([][]float64, 5)
	for i := range series {
		s := make([]float64, 300)
		s[0] = 0.5
		for t := 1; t < 300; t++ {
			s[t] = 0.3 + 0.6*s[t-1] + 0.005*rng.NormFloat64()
		}
		series[i] = s
	}
	var a AR1
	if err := a.Fit(series); err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.phi-0.6) > 0.1 {
		t.Fatalf("phi = %v want ~0.6", a.phi)
	}
	// One-step prediction should be accurate.
	h := series[0][:200]
	pred := a.Predict(h)
	want := 0.3 + 0.6*h[199]
	if math.Abs(pred-want)/want > 0.05 {
		t.Fatalf("Predict = %v want ~%v", pred, want)
	}
}

func TestAR1ConstantSeries(t *testing.T) {
	var a AR1
	if err := a.Fit([][]float64{{2, 2, 2, 2, 2}}); err != nil {
		t.Fatal(err)
	}
	if p := a.Predict([]float64{2, 2, 2}); math.Abs(p-2) > 1e-9 {
		t.Fatalf("constant series should predict itself, got %v", p)
	}
}

func TestAR2FitsSecondOrderProcess(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	series := make([][]float64, 4)
	for i := range series {
		s := make([]float64, 400)
		s[0], s[1] = 0.5, 0.55
		for t := 2; t < 400; t++ {
			s[t] = 0.1 + 0.5*s[t-1] + 0.3*s[t-2] + 0.003*rng.NormFloat64()
		}
		series[i] = s
	}
	var a AR2
	if err := a.Fit(series); err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.phi1-0.5) > 0.15 || math.Abs(a.phi2-0.3) > 0.15 {
		t.Fatalf("phi = %v, %v want ~0.5, 0.3", a.phi1, a.phi2)
	}
}

func TestARIMA111FitAndPredict(t *testing.T) {
	tr := trace.CloudStable(6, 300, 3)
	var a ARIMA111
	mape, err := Evaluate(&a, tr.Speeds, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if mape <= 0 || mape > 0.5 {
		t.Fatalf("ARIMA(1,1,1) MAPE = %v out of sane range", mape)
	}
}

func TestFitErrorsOnTinySeries(t *testing.T) {
	var a AR1
	if err := a.Fit([][]float64{{1}}); err == nil {
		t.Fatal("AR1 must reject degenerate input")
	}
	var a2 AR2
	if err := a2.Fit([][]float64{{1, 2}}); err == nil {
		t.Fatal("AR2 must reject degenerate input")
	}
	var a3 ARIMA111
	if err := a3.Fit([][]float64{{1, 2}}); err == nil {
		t.Fatal("ARIMA111 must reject degenerate input")
	}
}

func TestLSTMGradientCheck(t *testing.T) {
	// Analytic BPTT gradient must match central finite differences.
	cfg := LSTMConfig{Hidden: 3, Window: 6, Epochs: 1, LR: 0.01, Seed: 7}
	m := NewLSTM(cfg)
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 7)
	for i := range xs {
		xs[i] = rng.Float64()
	}
	n := m.numParams()
	analytic := make([]float64, n)
	ws := m.newBPTTWorkspace()
	m.lossAndGrad(xs, analytic, ws)

	params := make([]float64, n)
	m.flatten(params)
	const eps = 1e-6
	grad := make([]float64, n)
	for i := 0; i < n; i++ {
		orig := params[i]
		params[i] = orig + eps
		m.unflatten(params)
		lp := m.lossAndGrad(xs, make([]float64, n), ws)
		params[i] = orig - eps
		m.unflatten(params)
		lm := m.lossAndGrad(xs, make([]float64, n), ws)
		params[i] = orig
		grad[i] = (lp - lm) / (2 * eps)
	}
	m.unflatten(params)
	for i := 0; i < n; i++ {
		diff := math.Abs(analytic[i] - grad[i])
		scale := math.Max(1e-4, math.Max(math.Abs(analytic[i]), math.Abs(grad[i])))
		if diff/scale > 1e-4 {
			t.Fatalf("param %d: analytic %.8g numeric %.8g", i, analytic[i], grad[i])
		}
	}
}

func TestLSTMTrainingReducesLoss(t *testing.T) {
	tr := trace.CloudStable(4, 200, 5)
	cfg := DefaultLSTMConfig()
	cfg.Epochs = 25
	m := NewLSTM(cfg)
	var train [][]float64
	for _, s := range tr.Speeds {
		train = append(train, s[:160])
	}
	lossBefore := windowLoss(m, train)
	if err := m.Fit(train); err != nil {
		t.Fatal(err)
	}
	lossAfter := windowLoss(m, train)
	if lossAfter >= lossBefore {
		t.Fatalf("training did not reduce loss: %v -> %v", lossBefore, lossAfter)
	}
}

func windowLoss(m *LSTM, series [][]float64) float64 {
	total := 0.0
	grad := make([]float64, m.numParams())
	ws := m.newBPTTWorkspace()
	for _, s := range series {
		scale := maxScale(s)
		norm := make([]float64, len(s))
		for i, v := range s {
			norm[i] = v / scale
		}
		total += m.lossAndGrad(norm, grad, ws)
	}
	return total
}

func TestLSTMBeatsOrMatchesNaiveOnStableTraces(t *testing.T) {
	// §6.1: the LSTM is the paper's best model. On our stable traces it
	// must at least be competitive with AR(1) (within 20%) and produce a
	// sane MAPE. Exact superiority depends on trace realisations, so the
	// assertion is deliberately tolerant; the experiment harness reports
	// the actual numbers.
	tr := trace.CloudStable(8, 250, 11)
	cfg := DefaultLSTMConfig()
	cfg.Epochs = 40
	lstm := NewLSTM(cfg)
	lstmMAPE, err := Evaluate(lstm, tr.Speeds, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	ar1MAPE, err := Evaluate(&AR1{}, tr.Speeds, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("LSTM MAPE %.4f vs AR1 MAPE %.4f", lstmMAPE, ar1MAPE)
	if lstmMAPE > 0.4 {
		t.Fatalf("LSTM MAPE %v unreasonably high", lstmMAPE)
	}
	if lstmMAPE > ar1MAPE*1.2 {
		t.Fatalf("LSTM (%.4f) should be competitive with AR1 (%.4f)", lstmMAPE, ar1MAPE)
	}
}

func TestLSTMPredictEdgeCases(t *testing.T) {
	m := NewLSTM(DefaultLSTMConfig())
	if m.Predict(nil) != 0 {
		t.Fatal("empty history must predict 0")
	}
	if p := m.Predict([]float64{1.0}); p < 0 {
		t.Fatal("prediction must be non-negative")
	}
}

func TestEvaluateValidation(t *testing.T) {
	if _, err := Evaluate(LastValue{}, [][]float64{{1, 2, 3}}, 1.5); err == nil {
		t.Fatal("bad trainFrac must fail")
	}
	if _, err := Evaluate(LastValue{}, [][]float64{{1}}, 0.8); err == nil {
		t.Fatal("too-short series must fail")
	}
}
