package arima

import (
	"fmt"

	"predstream/internal/mat"
	"predstream/internal/stats"
	"predstream/internal/timeseries"
)

// SeasonalModel is a SARIMA(p,d,q)(P,D,0)_s model: the non-seasonal ARIMA
// core plus seasonal differencing of order D at period s and seasonal AR
// terms at lags s, 2s, …, P·s. Seasonal MA terms are omitted (they add
// little on the periodic load traces this repo produces and keep the
// Hannan–Rissanen regression well-conditioned).
//
// It is an extension beyond the paper's plain-ARIMA baseline, fitted with
// the same two-stage procedure.
type SeasonalModel struct {
	P, D, Q int // non-seasonal orders
	PS, DS  int // seasonal AR order and seasonal differencing order
	S       int // seasonal period in observations

	phi       []float64 // non-seasonal AR, lags 1..P
	sphi      []float64 // seasonal AR, lags S..PS·S
	theta     []float64 // MA, lags 1..Q
	intercept float64
	fitted    bool
}

// NewSeasonal returns an unfitted SARIMA(p,d,q)(ps,ds,0)_s model. It
// panics on invalid orders (construction bugs).
func NewSeasonal(p, d, q, ps, ds, s int) *SeasonalModel {
	if p < 0 || d < 0 || q < 0 || ps < 0 || ds < 0 {
		panic(fmt.Sprintf("arima: negative seasonal order (%d,%d,%d)(%d,%d)_%d", p, d, q, ps, ds, s))
	}
	if (ps > 0 || ds > 0) && s < 2 {
		panic(fmt.Sprintf("arima: seasonal terms require period >= 2, got %d", s))
	}
	if p == 0 && q == 0 && ps == 0 {
		panic("arima: model has no AR, MA or seasonal AR terms")
	}
	return &SeasonalModel{P: p, D: d, Q: q, PS: ps, DS: ds, S: s}
}

// Name implements timeseries.Predictor.
func (m *SeasonalModel) Name() string { return "SARIMA" }

// maxLag returns the deepest lag the stage-2 regression touches.
func (m *SeasonalModel) maxLag() int {
	lag := m.P
	if m.Q > lag {
		lag = m.Q
	}
	if s := m.PS * m.S; s > lag {
		lag = s
	}
	return lag
}

// MinContext implements timeseries.Predictor.
func (m *SeasonalModel) MinContext() int {
	return m.D + m.DS*m.S + m.maxLag() + 1
}

// seasonalDiff applies D_s passes of lag-s differencing.
func seasonalDiff(xs []float64, s, d int) ([]float64, error) {
	out := append([]float64(nil), xs...)
	for k := 0; k < d; k++ {
		if len(out) <= s {
			return nil, fmt.Errorf("arima: series of %d too short for seasonal differencing at period %d", len(xs), s)
		}
		next := make([]float64, len(out)-s)
		for i := s; i < len(out); i++ {
			next[i-s] = out[i] - out[i-s]
		}
		out = next
	}
	return out, nil
}

// transform applies the model's full differencing (regular d, then
// seasonal DS at period S).
func (m *SeasonalModel) transform(targets []float64) ([]float64, error) {
	y, err := stats.Diff(targets, m.D)
	if err != nil {
		return nil, err
	}
	return seasonalDiff(y, m.S, m.DS)
}

// Fit estimates the model on the target series.
func (m *SeasonalModel) Fit(train *timeseries.Series) error {
	y, err := m.transform(train.Targets())
	if err != nil {
		return fmt.Errorf("arima: %w", err)
	}
	need := 4 * (m.P + m.Q + m.PS + 1)
	if m.PS > 0 {
		need += m.PS * m.S
	}
	if len(y) < need {
		return fmt.Errorf("arima: %d transformed points, need at least %d", len(y), need)
	}

	// Stage 1: long AR residuals (shared with the non-seasonal model).
	longLag := 2 * (m.P + m.Q)
	if s := m.PS * m.S; s > longLag {
		longLag = s + 2
	}
	if longLag < 4 {
		longLag = 4
	}
	if longLag > len(y)/3 {
		longLag = len(y) / 3
	}
	resid, err := longARResiduals(y, longLag)
	if err != nil {
		return fmt.Errorf("arima: stage-1 AR: %w", err)
	}

	start := m.maxLag()
	rows := len(y) - start
	cols := 1 + m.P + m.PS + m.Q
	if rows < cols+2 {
		return fmt.Errorf("arima: only %d usable rows for %d coefficients", rows, cols)
	}
	x := mat.New(rows, cols)
	target := make([]float64, rows)
	for i := 0; i < rows; i++ {
		t := start + i
		col := 0
		x.Set(i, col, 1)
		col++
		for lag := 1; lag <= m.P; lag++ {
			x.Set(i, col, y[t-lag])
			col++
		}
		for k := 1; k <= m.PS; k++ {
			x.Set(i, col, y[t-k*m.S])
			col++
		}
		for lag := 1; lag <= m.Q; lag++ {
			x.Set(i, col, resid[t-lag])
			col++
		}
		target[i] = y[t]
	}
	beta, err := mat.LeastSquares(x, target, 1e-8)
	if err != nil {
		return fmt.Errorf("arima: stage-2 regression: %w", err)
	}
	m.intercept = beta[0]
	m.phi = beta[1 : 1+m.P]
	m.sphi = beta[1+m.P : 1+m.P+m.PS]
	m.theta = clampInvertible(beta[1+m.P+m.PS:])
	m.fitted = true
	return nil
}

// predictOne computes the one-step linear prediction at index t over
// series y with residuals resid (entries beyond len(resid) read as 0).
func (m *SeasonalModel) predictOne(y, resid []float64, t int) float64 {
	pred := m.intercept
	for lag := 1; lag <= m.P; lag++ {
		pred += m.phi[lag-1] * y[t-lag]
	}
	for k := 1; k <= m.PS; k++ {
		pred += m.sphi[k-1] * y[t-k*m.S]
	}
	for lag := 1; lag <= m.Q; lag++ {
		if idx := t - lag; idx < len(resid) {
			pred += m.theta[lag-1] * resid[idx]
		}
	}
	return pred
}

// Forecast returns forecasts for 1..steps ahead of the context series.
func (m *SeasonalModel) Forecast(context []float64, steps int) ([]float64, error) {
	if !m.fitted {
		return nil, timeseries.ErrNotFitted
	}
	if steps <= 0 {
		return nil, fmt.Errorf("arima: non-positive steps %d", steps)
	}
	if len(context) < m.MinContext() {
		return nil, timeseries.ErrShortContext
	}
	y, err := m.transform(context)
	if err != nil {
		return nil, fmt.Errorf("arima: %w", err)
	}
	// Reconstruct in-sample residuals with the fitted coefficients.
	resid := make([]float64, len(y))
	for t := m.maxLag(); t < len(y); t++ {
		resid[t] = y[t] - m.predictOne(y, resid, t)
	}
	ext := append([]float64(nil), y...)
	fc := make([]float64, steps)
	for s := 0; s < steps; s++ {
		pred := m.predictOne(ext, resid, len(ext))
		ext = append(ext, pred)
		fc[s] = pred
	}

	// Invert seasonal differencing (DS passes), then regular (D passes).
	for k := m.DS; k >= 1; k-- {
		base, err := stats.Diff(context, m.D)
		if err != nil {
			return nil, err
		}
		base, err = seasonalDiff(base, m.S, k-1)
		if err != nil {
			return nil, err
		}
		// fc[i] forecasts the k-times seasonally differenced series; the
		// level at horizon i is fc[i] + level at (i - S) where negative
		// offsets read from the tail of base.
		levels := make([]float64, len(fc))
		for i := range fc {
			var prior float64
			if off := i - m.S; off >= 0 {
				prior = levels[off]
			} else {
				prior = base[len(base)+off]
			}
			levels[i] = fc[i] + prior
		}
		fc = levels
	}
	for k := m.D; k >= 1; k-- {
		lvl, err := stats.Diff(context, k-1)
		if err != nil {
			return nil, err
		}
		fc = stats.Undiff(lvl[len(lvl)-1], fc)
	}
	return fc, nil
}

// Predict implements timeseries.Predictor.
func (m *SeasonalModel) Predict(recent *timeseries.Series, horizon int) (float64, error) {
	fc, err := m.Forecast(recent.Targets(), horizon)
	if err != nil {
		return 0, err
	}
	return fc[horizon-1], nil
}
