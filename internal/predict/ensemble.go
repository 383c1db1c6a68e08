package predict

import (
	"fmt"
	"math"
)

// Ensemble is a Network-Weather-Service-style meta-forecaster (Wolski et
// al., the §8 related-work design): it maintains several candidate
// models and, per prediction, selects the one with the lowest trailing
// absolute error on the specific series being forecast. That adapts the
// model choice per node — a node in a calm regime gets the persistence
// model, a mean-reverting node gets AR(1), and so on — without any
// global assumption about which model is best.
type Ensemble struct {
	// Models are the fitted candidates. Fit trains all of them.
	Models []Forecaster
	// Window is how many trailing one-step errors to score (default 10).
	Window int
}

// NewDefaultEnsemble bundles the paper's model family.
func NewDefaultEnsemble(seed int64) *Ensemble {
	cfg := DefaultLSTMConfig()
	cfg.Seed = seed
	return &Ensemble{
		Models: []Forecaster{
			NewLSTM(cfg),
			&AR1{},
			&AR2{},
			&ARIMA111{},
			LastValue{},
		},
	}
}

// Name implements Forecaster.
func (e *Ensemble) Name() string { return fmt.Sprintf("ensemble(%d models)", len(e.Models)) }

// Fit trains every candidate on the same series.
func (e *Ensemble) Fit(series [][]float64) error {
	if len(e.Models) == 0 {
		return fmt.Errorf("predict: ensemble has no models")
	}
	for _, m := range e.Models {
		if err := m.Fit(series); err != nil {
			return fmt.Errorf("predict: ensemble fit %s: %w", m.Name(), err)
		}
	}
	return nil
}

// Predict scores each candidate by its trailing one-step error on this
// history and returns the best candidate's forecast.
func (e *Ensemble) Predict(history []float64) float64 {
	if len(history) == 0 {
		return 0
	}
	if len(history) < 3 {
		return history[len(history)-1]
	}
	w := e.Window
	if w <= 0 {
		w = 10
	}
	start := len(history) - w
	if start < 2 {
		start = 2
	}
	best := 0
	bestErr := math.Inf(1)
	for mi, m := range e.Models {
		errSum := 0.0
		count := 0
		for t := start; t < len(history); t++ {
			p := m.Predict(history[:t])
			errSum += math.Abs(p - history[t])
			count++
		}
		if count == 0 {
			continue
		}
		if avg := errSum / float64(count); avg < bestErr {
			bestErr = avg
			best = mi
		}
	}
	return e.Models[best].Predict(history)
}
