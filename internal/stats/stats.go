package stats

import (
	"math"
	"math/rand"
	"sort"
)

// StreamPoint is the minimal per-stream tuple the aggregate estimators need.
type StreamPoint struct {
	Watch float64 // watch time, seconds (play + stall)
	Stall float64 // stalled time, seconds
}

// StallRatio returns the aggregate rebuffering ratio: total stall over total
// watch time — the estimator used for the headline "time spent stalled".
func StallRatio(points []StreamPoint) float64 {
	var stall, watch float64
	for _, p := range points {
		stall += p.Stall
		watch += p.Watch
	}
	if watch <= 0 {
		return 0
	}
	return stall / watch
}

// Interval is a two-sided confidence interval around a point estimate.
type Interval struct {
	Point, Lo, Hi float64
}

// RelativeHalfWidth returns half the width as a fraction of the point
// estimate (the paper quotes CI widths of +/-10-17% of the mean).
func (iv Interval) RelativeHalfWidth() float64 {
	if iv.Point == 0 {
		return 0
	}
	return (iv.Hi - iv.Lo) / 2 / math.Abs(iv.Point)
}

// Overlaps reports whether two intervals overlap — the paper's criterion
// for "statistically indistinguishable".
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Lo <= other.Hi && other.Lo <= iv.Hi
}

// conf is every interval's two-sided level, the paper's 95%; z is its
// normal quantile. conf is a variable so that (1-conf)/2 is run-time float64
// arithmetic: a constant expression would fold exactly, to other bits.
var conf = 0.95

const z = 1.96

// BootstrapStallRatio computes a percentile-bootstrap conf-level CI on the
// aggregate stall ratio by resampling streams with replacement (the paper's
// §3.4 procedure: streams are the resampling unit because stalls are rare
// and heavily stream-correlated).
func BootstrapStallRatio(rng *rand.Rand, points []StreamPoint, iters int) Interval {
	point := StallRatio(points)
	if len(points) == 0 || iters <= 0 {
		return Interval{Point: point, Lo: point, Hi: point}
	}
	ratios := make([]float64, iters)
	resample := make([]StreamPoint, len(points))
	for it := 0; it < iters; it++ {
		for i := range resample {
			resample[i] = points[rng.Intn(len(points))]
		}
		ratios[it] = StallRatio(resample)
	}
	sort.Float64s(ratios)
	alpha := (1 - conf) / 2
	return Interval{
		Point: point,
		Lo:    quantileSorted(ratios, alpha),
		Hi:    quantileSorted(ratios, 1-float64(alpha)), // alpha is a ×0.5 product: unfused on arm64
	}
}

// WeightedMeanSE returns the weighted mean of values and a conf-level
// normal-approximation interval using the weighted standard error — the
// paper's estimator for average SSIM, weighting each stream by its duration.
func WeightedMeanSE(values, weights []float64) Interval {
	if len(values) != len(weights) {
		panic("stats: values/weights length mismatch")
	}
	var sumW, sumWX float64
	for i, v := range values {
		sumW += weights[i]
		sumWX += float64(weights[i] * v)
	}
	if sumW <= 0 {
		return Interval{}
	}
	mean := sumWX / sumW
	// Weighted variance of the mean: sum w_i^2 (x_i - mean)^2 / (sum w)^2.
	var num float64
	for i, v := range values {
		d := v - mean
		num += float64(weights[i] * weights[i] * d * d)
	}
	se := math.Sqrt(num) / sumW
	return Interval{Point: mean, Lo: mean - float64(z*se), Hi: mean + float64(z*se)}
}

// MeanSE is WeightedMeanSE with unit weights.
func MeanSE(values []float64) Interval {
	w := make([]float64, len(values))
	for i := range w {
		w[i] = 1
	}
	return WeightedMeanSE(values, w)
}

// quantileSorted returns the q-quantile of ascending xs by linear
// interpolation.
func quantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if q <= 0 {
		return xs[0]
	}
	if q >= 1 {
		return xs[len(xs)-1]
	}
	pos := float64(q * float64(len(xs)-1))
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return float64(xs[lo]*(1-frac)) + float64(xs[lo+1]*frac)
}

// Quantile sorts a copy of xs and returns the q-quantile.
func Quantile(xs []float64, q float64) float64 {
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	return quantileSorted(cp, q)
}

// CCDFAt evaluates P(X >= x) from a sample.
func CCDFAt(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, v := range xs {
		if v >= x {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// PowerConfig controls the A/B distinguishability analysis.
type PowerConfig struct {
	// Effect is the true relative difference between the schemes'
	// stall ratios (e.g. 0.15 for 15%).
	Effect float64
	// Trials is how many simulated experiments to run per sample size.
	Trials int
	// BootstrapIters per CI.
	BootstrapIters int
}

// DetectionRate estimates the probability that two schemes whose true stall
// ratios differ by cfg.Effect are distinguished (non-overlapping CIs) given
// n streams per scheme, with per-stream behavior drawn by draw(rng, scale):
// draw must return a stream whose expected stall ratio is proportional to
// scale. This reproduces the paper's finding that realistic heavy-tailed
// stream behavior makes modest effects statistically invisible.
func DetectionRate(rng *rand.Rand, cfg PowerConfig, n int, draw func(rng *rand.Rand, scale float64) StreamPoint) float64 {
	detected := 0
	a := make([]StreamPoint, n)
	b := make([]StreamPoint, n)
	for trial := 0; trial < cfg.Trials; trial++ {
		for i := 0; i < n; i++ {
			a[i] = draw(rng, 1.0)
			b[i] = draw(rng, 1.0-cfg.Effect)
		}
		ia := BootstrapStallRatio(rng, a, cfg.BootstrapIters)
		ib := BootstrapStallRatio(rng, b, cfg.BootstrapIters)
		if !ia.Overlaps(ib) {
			detected++
		}
	}
	return float64(detected) / float64(cfg.Trials)
}

// StreamYears converts a set of stream watch times (seconds) to stream-years.
func StreamYears(points []StreamPoint) float64 {
	var watch float64
	for _, p := range points {
		watch += p.Watch
	}
	return watch / (365.25 * 24 * 3600)
}
