package predict

import (
	"fmt"
	"math"
)

// AR1 is the ARIMA(1,0,0) model x(t+1) = c + φ·x(t) + ε, fitted by
// ordinary least squares pooled across the training series. The paper
// found it the best ARIMA variant (§6.1).
type AR1 struct {
	c, phi float64
	fitted bool
}

// Name implements Forecaster.
func (a *AR1) Name() string { return "arima(1,0,0)" }

// Fit estimates (c, φ) by OLS over all consecutive pairs.
func (a *AR1) Fit(series [][]float64) error {
	var sx, sy, sxx, sxy float64
	n := 0.0
	for _, s := range series {
		scale := maxScale(s)
		for t := 0; t+1 < len(s); t++ {
			x, y := s[t]/scale, s[t+1]/scale
			sx += x
			sy += y
			sxx += x * x
			sxy += x * y
			n++
		}
	}
	if n < 2 {
		return fmt.Errorf("predict: AR1 needs at least 2 sample pairs")
	}
	den := n*sxx - sx*sx
	if math.Abs(den) < 1e-12 {
		// Constant series: persistence.
		a.c, a.phi = 0, 1
	} else {
		a.phi = (n*sxy - sx*sy) / den
		a.c = (sy - a.phi*sx) / n
	}
	a.fitted = true
	return nil
}

// Predict returns c + φ·x(t), rescaled to the history's units.
func (a *AR1) Predict(history []float64) float64 {
	if len(history) == 0 {
		return 0
	}
	if !a.fitted {
		return history[len(history)-1]
	}
	scale := maxScale(history)
	y := (a.c + a.phi*(history[len(history)-1]/scale)) * scale
	if y < 0 {
		y = 0
	}
	return y
}

// AR2 is ARIMA(2,0,0): x(t+1) = c + φ₁·x(t) + φ₂·x(t−1), fitted by OLS.
type AR2 struct {
	c, phi1, phi2 float64
	fitted        bool
}

// Name implements Forecaster.
func (a *AR2) Name() string { return "arima(2,0,0)" }

// Fit estimates (c, φ₁, φ₂) by solving the 3×3 normal equations.
func (a *AR2) Fit(series [][]float64) error {
	// Normal equations for regression y = c + φ1·x1 + φ2·x2.
	var s [3][3]float64
	var b [3]float64
	n := 0.0
	for _, sr := range series {
		scale := maxScale(sr)
		for t := 1; t+1 < len(sr); t++ {
			x := [3]float64{1, sr[t] / scale, sr[t-1] / scale}
			y := sr[t+1] / scale
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					s[i][j] += x[i] * x[j]
				}
				b[i] += x[i] * y
			}
			n++
		}
	}
	if n < 3 {
		return fmt.Errorf("predict: AR2 needs at least 3 samples")
	}
	sol, ok := solve3(s, b)
	if !ok {
		a.c, a.phi1, a.phi2 = 0, 1, 0 // degenerate: persistence
	} else {
		a.c, a.phi1, a.phi2 = sol[0], sol[1], sol[2]
	}
	a.fitted = true
	return nil
}

// Predict returns the two-lag autoregression forecast.
func (a *AR2) Predict(history []float64) float64 {
	if len(history) == 0 {
		return 0
	}
	if len(history) == 1 || !a.fitted {
		return history[len(history)-1]
	}
	scale := maxScale(history)
	t := len(history) - 1
	y := (a.c + a.phi1*(history[t]/scale) + a.phi2*(history[t-1]/scale)) * scale
	if y < 0 {
		y = 0
	}
	return y
}

// solve3 solves a 3×3 system by Gaussian elimination with partial pivots.
func solve3(a [3][3]float64, b [3]float64) ([3]float64, bool) {
	var x [3]float64
	m := a
	v := b
	for col := 0; col < 3; col++ {
		p := col
		for r := col + 1; r < 3; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[p][col]) {
				p = r
			}
		}
		if math.Abs(m[p][col]) < 1e-12 {
			return x, false
		}
		m[p], m[col] = m[col], m[p]
		v[p], v[col] = v[col], v[p]
		for r := col + 1; r < 3; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c < 3; c++ {
				m[r][c] -= f * m[col][c]
			}
			v[r] -= f * v[col]
		}
	}
	for i := 2; i >= 0; i-- {
		s := v[i]
		for j := i + 1; j < 3; j++ {
			s -= m[i][j] * x[j]
		}
		x[i] = s / m[i][i]
	}
	return x, true
}

// ARIMA111 is ARIMA(1,1,1): on the differenced series d(t)=x(t)−x(t−1),
// d(t) = φ·d(t−1) + θ·e(t−1) + e(t). Parameters are fitted by conditional
// least squares over a (φ, θ) grid — robust and dependency-free.
type ARIMA111 struct {
	phi, theta float64
	fitted     bool
}

// Name implements Forecaster.
func (a *ARIMA111) Name() string { return "arima(1,1,1)" }

// Fit grid-searches (φ, θ) ∈ [−0.95, 0.95]² minimising the conditional
// sum of squared innovations across the training series.
func (a *ARIMA111) Fit(series [][]float64) error {
	ok := false
	for _, s := range series {
		if len(s) >= 4 {
			ok = true
		}
	}
	if !ok {
		return fmt.Errorf("predict: ARIMA(1,1,1) needs a series of length >= 4")
	}
	best := math.Inf(1)
	for phi := -0.95; phi <= 0.951; phi += 0.05 {
		for th := -0.95; th <= 0.951; th += 0.05 {
			css := 0.0
			for _, s := range series {
				_, _, c := filter111(s, maxScale(s), phi, th)
				css += c
			}
			if css < best {
				best = css
				a.phi, a.theta = phi, th
			}
		}
	}
	a.fitted = true
	return nil
}

// filter111 runs the ARIMA(1,1,1) innovation filter over x/scale and
// returns the last difference, the last innovation and the conditional
// sum of squared innovations — what Predict and Fit respectively need.
//
//s2c2:noalloc
func filter111(x []float64, scale, phi, theta float64) (dLast, eLast, css float64) {
	for t := 2; t < len(x); t++ {
		d := x[t]/scale - x[t-1]/scale
		dPrev := x[t-1]/scale - x[t-2]/scale
		eLast = d - phi*dPrev - theta*eLast
		css += eLast * eLast
		dLast = d
	}
	return dLast, eLast, css
}

// Predict filters the history to recover the latest innovation, then
// forecasts x̂ = x(t) + φ·d(t) + θ·e(t).
func (a *ARIMA111) Predict(history []float64) float64 {
	if len(history) == 0 {
		return 0
	}
	if len(history) < 3 || !a.fitted {
		return history[len(history)-1]
	}
	scale := maxScale(history)
	dLast, eLast, _ := filter111(history, scale, a.phi, a.theta)
	y := (history[len(history)-1]/scale + a.phi*dLast + a.theta*eLast) * scale
	if y < 0 {
		y = 0
	}
	return y
}
