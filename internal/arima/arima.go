// Package arima implements ARIMA(p,d,q) forecasting, one of the paper's
// two prediction baselines. Estimation uses the Hannan–Rissanen two-stage
// procedure: a long autoregression supplies innovation estimates, then the
// ARMA coefficients come from a single least-squares regression on lagged
// values and lagged innovations. That keeps the fit fast, deterministic and
// dependency-free while matching statsmodels closely on the well-behaved
// series the engine produces.
package arima

import (
	"fmt"

	"predstream/internal/mat"
	"predstream/internal/stats"
	"predstream/internal/timeseries"
)

// Model is an ARIMA(p,d,q) model with an intercept. The zero value is not
// usable; construct with New.
type Model struct {
	P, D, Q int

	// Fitted parameters on the d-times differenced series.
	phi       []float64 // AR coefficients, lag 1..P
	theta     []float64 // MA coefficients, lag 1..Q
	intercept float64
	fitted    bool
}

// New returns an unfitted ARIMA(p,d,q) model. It panics on negative orders
// because those are construction bugs, not data conditions.
func New(p, d, q int) *Model {
	if p < 0 || d < 0 || q < 0 {
		panic(fmt.Sprintf("arima: negative order (%d,%d,%d)", p, d, q))
	}
	if p == 0 && q == 0 {
		panic("arima: p and q cannot both be zero")
	}
	return &Model{P: p, D: d, Q: q}
}

// Name implements timeseries.Predictor.
func (m *Model) Name() string { return "ARIMA" }

// MinContext implements timeseries.Predictor: enough points to difference
// and fill every lag.
func (m *Model) MinContext() int {
	lag := m.P
	if m.Q > lag {
		lag = m.Q
	}
	return m.D + lag + 1
}

// longARLag returns the order of the stage-1 long autoregression.
func (m *Model) longARLag(n int) int {
	lag := 2 * (m.P + m.Q)
	if lag < 4 {
		lag = 4
	}
	if lag > n/4 {
		lag = n / 4
	}
	if lag < 1 {
		lag = 1
	}
	return lag
}

// Fit estimates the model on the target series.
func (m *Model) Fit(train *timeseries.Series) error {
	y, err := stats.Diff(train.Targets(), m.D)
	if err != nil {
		return fmt.Errorf("arima: %w", err)
	}
	need := 4 * (m.P + m.Q + 1)
	if len(y) < need {
		return fmt.Errorf("arima: %d differenced points, need at least %d for (%d,%d,%d)", len(y), need, m.P, m.D, m.Q)
	}

	// Stage 1: long AR to estimate innovations.
	resid, err := longARResiduals(y, m.longARLag(len(y)))
	if err != nil {
		return fmt.Errorf("arima: stage-1 AR: %w", err)
	}

	// Stage 2: regress y_t on [1, y_{t-1..t-P}, e_{t-1..t-Q}].
	maxLag := m.P
	if m.Q > maxLag {
		maxLag = m.Q
	}
	start := maxLag
	if start < 1 {
		start = 1
	}
	rows := len(y) - start
	cols := 1 + m.P + m.Q
	x := mat.New(rows, cols)
	target := make([]float64, rows)
	for i := 0; i < rows; i++ {
		t := start + i
		x.Set(i, 0, 1)
		for lag := 1; lag <= m.P; lag++ {
			x.Set(i, lag, y[t-lag])
		}
		for lag := 1; lag <= m.Q; lag++ {
			x.Set(i, m.P+lag, resid[t-lag])
		}
		target[i] = y[t]
	}
	beta, err := mat.LeastSquares(x, target, 1e-8)
	if err != nil {
		return fmt.Errorf("arima: stage-2 regression: %w", err)
	}
	m.intercept = beta[0]
	m.phi = beta[1 : 1+m.P]
	m.theta = clampInvertible(beta[1+m.P:])
	m.fitted = true
	return nil
}

// clampInvertible bounds MA coefficients to magnitude < 1. Hannan–Rissanen
// can estimate non-invertible MA terms; the residual-reconstruction filter
// then diverges exponentially over long contexts (resid_t depends on
// -θ·resid_{t-1}). Component-wise clamping is exact for q=1 and a safe
// approximation for the small q used here.
func clampInvertible(theta []float64) []float64 {
	const limit = 0.98
	for i, v := range theta {
		if v > limit {
			theta[i] = limit
		} else if v < -limit {
			theta[i] = -limit
		}
	}
	return theta
}

// longARResiduals fits AR(lag) by OLS and returns the residual series
// aligned with y (the first lag entries are zero, the standard HR
// convention).
func longARResiduals(y []float64, lag int) ([]float64, error) {
	rows := len(y) - lag
	if rows <= lag+1 {
		return nil, fmt.Errorf("series too short for long-AR lag %d", lag)
	}
	x := mat.New(rows, lag+1)
	target := make([]float64, rows)
	for i := 0; i < rows; i++ {
		t := lag + i
		x.Set(i, 0, 1)
		for k := 1; k <= lag; k++ {
			x.Set(i, k, y[t-k])
		}
		target[i] = y[t]
	}
	beta, err := mat.LeastSquares(x, target, 1e-8)
	if err != nil {
		return nil, err
	}
	resid := make([]float64, len(y))
	for t := lag; t < len(y); t++ {
		pred := beta[0]
		for k := 1; k <= lag; k++ {
			pred += beta[k] * y[t-k]
		}
		resid[t] = y[t] - pred
	}
	return resid, nil
}

// filterResiduals reconstructs innovation estimates on a context window by
// running the fitted model forward over it.
func (m *Model) filterResiduals(y []float64) []float64 {
	resid := make([]float64, len(y))
	maxLag := m.P
	if m.Q > maxLag {
		maxLag = m.Q
	}
	for t := maxLag; t < len(y); t++ {
		pred := m.intercept
		for lag := 1; lag <= m.P; lag++ {
			pred += m.phi[lag-1] * y[t-lag]
		}
		for lag := 1; lag <= m.Q; lag++ {
			pred += m.theta[lag-1] * resid[t-lag]
		}
		resid[t] = y[t] - pred
	}
	return resid
}

// Forecast returns forecasts for 1..steps ahead of the end of the context
// target series.
func (m *Model) Forecast(context []float64, steps int) ([]float64, error) {
	if !m.fitted {
		return nil, timeseries.ErrNotFitted
	}
	if steps <= 0 {
		return nil, fmt.Errorf("arima: non-positive steps %d", steps)
	}
	if len(context) < m.MinContext() {
		return nil, timeseries.ErrShortContext
	}
	y, err := stats.Diff(context, m.D)
	if err != nil {
		return nil, fmt.Errorf("arima: %w", err)
	}
	resid := m.filterResiduals(y)

	// Extend y and resid with forecasts; future innovations are zero.
	ext := mat.CloneVec(y)
	extResid := mat.CloneVec(resid)
	diffFc := make([]float64, steps)
	for s := 0; s < steps; s++ {
		t := len(ext)
		pred := m.intercept
		for lag := 1; lag <= m.P; lag++ {
			pred += m.phi[lag-1] * ext[t-lag]
		}
		for lag := 1; lag <= m.Q; lag++ {
			idx := t - lag
			if idx < len(extResid) {
				pred += m.theta[lag-1] * extResid[idx]
			}
		}
		ext = append(ext, pred)
		extResid = append(extResid, 0)
		diffFc[s] = pred
	}

	// Undo differencing d times, each using the appropriate last level.
	fc := diffFc
	for k := m.D; k >= 1; k-- {
		// Level series after k-1 differences; its last value anchors the
		// integration of the k-times-differenced forecasts.
		lvl, err := stats.Diff(context, k-1)
		if err != nil {
			return nil, err
		}
		fc = stats.Undiff(lvl[len(lvl)-1], fc)
	}
	return fc, nil
}

// Predict implements timeseries.Predictor.
func (m *Model) Predict(recent *timeseries.Series, horizon int) (float64, error) {
	fc, err := m.Forecast(recent.Targets(), horizon)
	if err != nil {
		return 0, err
	}
	return fc[horizon-1], nil
}
