package arima

import "predstream/internal/mat"

// Coefficients returns the fitted intercept, AR and MA coefficients.
func (m *Model) Coefficients() (intercept float64, phi, theta []float64) {
	return m.intercept, mat.CloneVec(m.phi), mat.CloneVec(m.theta)
}

// Coefficients returns the fitted intercept and coefficient groups.
func (m *SeasonalModel) Coefficients() (intercept float64, phi, seasonalPhi, theta []float64) {
	return m.intercept, mat.CloneVec(m.phi), mat.CloneVec(m.sphi), mat.CloneVec(m.theta)
}
