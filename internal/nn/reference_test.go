package nn

import "math"

// Reference implementations the tests compare the production paths
// against. They are deliberately the slow, obvious version of what the
// engine does.

// GradCheck compares the analytic gradient of every parameter of net on
// one (seq, target) example against a central finite difference, returning
// the worst relative error encountered.
func GradCheck(net *Network, seq [][]float64, target []float64, loss Loss, eps float64) float64 {
	params := net.Params()
	for _, p := range params {
		p.Grad.Zero()
	}
	pred := net.Forward(seq)
	net.Backward(loss.Grad(pred, target))

	worst := 0.0
	for _, p := range params {
		wd := p.W.Data()
		gd := p.Grad.Data()
		for i := range wd {
			orig := wd[i]
			wd[i] = orig + eps
			lossPlus := loss.Value(net.Forward(seq), target)
			wd[i] = orig - eps
			lossMinus := loss.Value(net.Forward(seq), target)
			wd[i] = orig
			numeric := (lossPlus - lossMinus) / (2 * eps)
			analytic := gd[i]
			den := math.Max(math.Abs(numeric)+math.Abs(analytic), 1e-8)
			rel := math.Abs(numeric-analytic) / den
			if rel > worst {
				worst = rel
			}
		}
	}
	return worst
}

// EvaluateLoss returns the mean loss of net over data without training,
// one example at a time in index order.
func EvaluateLoss(net *Network, data Dataset, loss Loss) (float64, error) {
	if err := data.Validate(net.InSize(), net.OutSize()); err != nil {
		return 0, err
	}
	if data.Len() == 0 {
		return 0, errEmptyDataset
	}
	if loss == nil {
		loss = MSE{}
	}
	var total float64
	for i := range data.X {
		total += loss.Value(net.Forward(data.X[i]), data.Y[i])
	}
	return total / float64(data.Len()), nil
}

// sgd is plain stochastic gradient descent: one Step moves every weight
// by exactly -LR times its gradient, so a test can predict the update.
type sgd struct{ LR float64 }

func (sgd) Name() string { return "sgd" }

func (s sgd) Step(params []*Param) {
	for _, p := range params {
		gd, wd := p.Grad.Data(), p.W.Data()
		for i := range gd {
			wd[i] -= s.LR * gd[i]
		}
		p.Grad.Zero()
	}
}
