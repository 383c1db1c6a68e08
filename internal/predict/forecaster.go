// Package predict implements the speed-prediction layer of §3.2/§6.1:
// a from-scratch LSTM (1-dimensional input and output, 4-dimensional
// hidden state, tanh activation — the paper's best model) trained with
// truncated BPTT and Adam, plus the ARIMA family the paper compares
// against (AR(1), AR(2), ARIMA(1,1,1)) and a naive last-value baseline.
//
// Forecasters consume per-node speed series normalised by their maximum
// (as the paper's measurements are) and produce one-step-ahead forecasts.
// Forecaster.Predict is stateless — history in, forecast out — and is the
// reference. A round-by-round driver uses a Tracker instead: it keeps
// each worker's last 64 observations in fixed storage, applies the
// bootstrap and fallback rules every driver shares, and advances
// per-series state by one step per observation where the model has an
// incremental form (the LSTM), bit-identical to Predict on that window.
package predict

import "fmt"

// Forecaster produces one-step-ahead speed forecasts.
type Forecaster interface {
	// Name identifies the model in experiment output.
	Name() string
	// Fit trains the model on a set of speed series (one per node).
	Fit(series [][]float64) error
	// Predict forecasts the next value of a series given its history.
	// An empty history returns 0.
	Predict(history []float64) float64
}

// MAPE returns the mean absolute percentage error of pred vs actual,
// expressed as a fraction (0.167 == 16.7%). Zero actuals are skipped.
func MAPE(pred, actual []float64) float64 {
	if len(pred) != len(actual) {
		panic(fmt.Sprintf("predict: MAPE length mismatch %d vs %d", len(pred), len(actual)))
	}
	sum, n := 0.0, 0
	for i := range pred {
		if actual[i] == 0 {
			continue
		}
		d := (pred[i] - actual[i]) / actual[i]
		if d < 0 {
			d = -d
		}
		sum += d
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Evaluate fits f on the first trainFrac of every series and returns its
// MAPE over one-step-ahead predictions on the remaining test portion —
// the paper's 80:20 protocol.
func Evaluate(f Forecaster, series [][]float64, trainFrac float64) (float64, error) {
	if trainFrac <= 0 || trainFrac >= 1 {
		return 0, fmt.Errorf("predict: trainFrac %v out of (0,1)", trainFrac)
	}
	train := make([][]float64, len(series))
	for i, s := range series {
		cut := int(float64(len(s)) * trainFrac)
		if cut < 2 {
			return 0, fmt.Errorf("predict: series %d too short (%d)", i, len(s))
		}
		train[i] = s[:cut]
	}
	if err := f.Fit(train); err != nil {
		return 0, err
	}
	var preds, actuals []float64
	for i, s := range series {
		cut := len(train[i])
		for t := cut; t < len(s); t++ {
			preds = append(preds, f.Predict(s[:t]))
			actuals = append(actuals, s[t])
		}
	}
	return MAPE(preds, actuals), nil
}

// LastValue is the naive persistence forecaster: x̂(t+1) = x(t).
type LastValue struct{}

// Name implements Forecaster.
func (LastValue) Name() string { return "last-value" }

// Fit is a no-op: the persistence model has no parameters.
func (LastValue) Fit([][]float64) error { return nil }

// Predict returns the most recent observation.
func (LastValue) Predict(history []float64) float64 {
	if len(history) == 0 {
		return 0
	}
	return history[len(history)-1]
}

// maxScale returns the scale a series is normalised by: its maximum, or 1
// for an empty or all-zero series. Callers divide by it at use.
//
//s2c2:noalloc
func maxScale(s []float64) float64 {
	max := 0.0
	for _, v := range s {
		if v > max {
			max = v
		}
	}
	if max == 0 {
		max = 1
	}
	return max
}
