package scenario

// The builder options below only tests compose; production code and the
// puffer facade build specs with the ones in builder.go.

// Retrain toggles the nightly warm-start retraining.
func Retrain(on bool) Option { return func(s *Spec) { s.Daily.Retrain = ptr(on) } }

// Hidden sets the TTP hidden-layer sizes; Hidden() with no arguments is
// the linear-model ablation.
func Hidden(sizes ...int) Option {
	return func(s *Spec) {
		if sizes == nil {
			sizes = []int{}
		}
		s.Model.Hidden = sizes
	}
}

// Horizon sets the TTP/MPC lookahead in chunks.
func Horizon(n int) Option { return func(s *Spec) { s.Model.Horizon = n } }

// BatchSize sets the training minibatch size.
func BatchSize(n int) Option { return func(s *Spec) { s.Train.BatchSize = n } }

// LR sets the Adam learning rate.
func LR(v float64) Option { return func(s *Spec) { s.Train.LR = v } }

// Mix migrates the population toward another family over a linear ramp.
func Mix(family string, startDay, rampDays int) Option {
	return func(s *Spec) {
		s.Drift.Mix = ptr(family)
		s.Drift.MixStartDay = ptr(startDay)
		s.Drift.MixRampDays = ptr(rampDays)
	}
}

// DistWorkers selects the dist engine with the given worker-process count
// (0 = GOMAXPROCS).
func DistWorkers(n int) Option {
	return func(s *Spec) {
		s.Engine.Kind = "dist"
		s.Engine.DistWorkers = n
	}
}
