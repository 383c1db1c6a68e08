package experiments

import (
	"github.com/coded-computing/s2c2/internal/predict"
	"github.com/coded-computing/s2c2/internal/sim"
)

// Config scales every experiment. The defaults run each figure in well
// under a second so the whole suite regenerates quickly; Scale multiplies
// problem sizes toward the paper's dimensions when more fidelity is
// wanted (e.g. `s2c2-exp -scale 4`).
type Config struct {
	// Scale multiplies dataset dimensions (1 = fast defaults).
	Scale int
	// Iterations per job (the paper reports 15-iteration averages).
	Iterations int
	// Seed drives every generator for exact reproducibility.
	Seed int64
	// UseLSTM selects the LSTM forecaster for prediction-driven runs
	// (slower); false uses AR(1), the paper's best ARIMA baseline.
	UseLSTM bool
}

func (c Config) scale() int {
	if c.Scale < 1 {
		return 1
	}
	return c.Scale
}

func (c Config) iters() int {
	if c.Iterations < 1 {
		return 15
	}
	return c.Iterations
}

// forecaster builds the configured prediction model, pre-fitted on a
// training trace (the paper trains offline on measured droplet data).
func (c Config) forecaster(trainSeries [][]float64) (predict.Forecaster, error) {
	var f predict.Forecaster
	if c.UseLSTM {
		cfg := predict.DefaultLSTMConfig()
		cfg.Seed = c.Seed
		cfg.Epochs = 30
		f = predict.NewLSTM(cfg)
	} else {
		f = &predict.AR1{}
	}
	if err := f.Fit(trainSeries); err != nil {
		return nil, err
	}
	return f, nil
}

func comm() sim.CommModel        { return sim.DefaultComm() }
func timeout() sim.TimeoutPolicy { return sim.DefaultTimeout() }
