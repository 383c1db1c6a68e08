package predict

import (
	"testing"

	"github.com/coded-computing/s2c2/internal/trace"
)

func TestEnsembleFitRequiresModels(t *testing.T) {
	e := &Ensemble{}
	if err := e.Fit([][]float64{{1, 2, 3}}); err == nil {
		t.Fatal("empty ensemble must fail to fit")
	}
}

func TestEnsembleTracksBestModel(t *testing.T) {
	// Fast ensemble (no LSTM) to keep the test quick.
	e := &Ensemble{Models: []Forecaster{&AR1{}, LastValue{}}}
	tr := trace.CloudStable(6, 200, 17)
	mape, err := Evaluate(e, tr.Speeds, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	ar1MAPE, err := Evaluate(&AR1{}, tr.Speeds, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	lvMAPE, err := Evaluate(LastValue{}, tr.Speeds, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	bestSingle := ar1MAPE
	if lvMAPE < bestSingle {
		bestSingle = lvMAPE
	}
	t.Logf("ensemble %.4f, ar1 %.4f, last-value %.4f", mape, ar1MAPE, lvMAPE)
	// Per-series selection should be close to (or better than) the best
	// single model; allow 15% slack for selection noise on short windows.
	if mape > bestSingle*1.15 {
		t.Fatalf("ensemble (%.4f) much worse than best single model (%.4f)", mape, bestSingle)
	}
}

func TestEnsemblePredictEdgeCases(t *testing.T) {
	e := &Ensemble{Models: []Forecaster{LastValue{}}}
	if e.Predict(nil) != 0 {
		t.Fatal("empty history must predict 0")
	}
	if e.Predict([]float64{2}) != 2 {
		t.Fatal("short history should fall back to persistence")
	}
	two := &Ensemble{Models: []Forecaster{&AR1{}, LastValue{}}}
	if h := []float64{1, 3}; two.Predict(h) != (LastValue{}).Predict(h) {
		t.Fatal("short history should be persistence whatever the candidates")
	}
}

func TestEnsembleBestModelSwitches(t *testing.T) {
	e := &Ensemble{Models: []Forecaster{&AR1{}, LastValue{}}, Window: 8}
	// Strongly mean-reverting series: AR(1) with phi well below 1.
	series := make([]float64, 120)
	series[0] = 0.9
	for t := 1; t < len(series); t++ {
		series[t] = 0.5 + 0.3*series[t-1]
		if t%2 == 0 {
			series[t] += 0.05
		} else {
			series[t] -= 0.05
		}
	}
	if err := e.Fit([][]float64{series}); err != nil {
		t.Fatal(err)
	}
	// The ensemble must forecast exactly what AR(1) does, not persistence.
	if got, want := e.Predict(series), e.Models[0].Predict(series); got != want {
		t.Fatalf("ensemble predicts %v, AR(1) %v, last-value %v", got, want, e.Models[1].Predict(series))
	}
	// A random-walk-like trending series should favour persistence.
	walk := make([]float64, 120)
	walk[0] = 0.5
	for t := 1; t < len(walk); t++ {
		walk[t] = walk[t-1] + 0.004
	}
	if err := e.Fit([][]float64{walk}); err != nil {
		t.Fatal(err)
	}
	if p := e.Predict(walk); p <= 0 {
		t.Fatalf("prediction %v", p)
	}
}

func TestDefaultEnsembleConstruction(t *testing.T) {
	e := NewDefaultEnsemble(1)
	if len(e.Models) != 5 {
		t.Fatalf("default ensemble has %d models, want 5", len(e.Models))
	}
	if e.Name() == "" {
		t.Fatal("name missing")
	}
}
