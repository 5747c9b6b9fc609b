package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestStallRatio(t *testing.T) {
	pts := []StreamPoint{{Watch: 90, Stall: 10}, {Watch: 110, Stall: 0}}
	if got := StallRatio(pts); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("StallRatio = %v, want 0.05", got)
	}
	if StallRatio(nil) != 0 {
		t.Fatal("empty StallRatio should be 0")
	}
}

func TestBootstrapCoversTruth(t *testing.T) {
	// Streams from a known process: the CI should cover the true ratio
	// most of the time.
	rng := rand.New(rand.NewSource(1))
	trueRatio := 0.02
	covered := 0
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		pts := make([]StreamPoint, 400)
		for i := range pts {
			w := 60 + rng.ExpFloat64()*240
			s := 0.0
			if rng.Float64() < 0.1 { // stalls are rare and bursty
				s = w * trueRatio * 10 * rng.ExpFloat64()
			}
			pts[i] = StreamPoint{Watch: w, Stall: s}
		}
		iv := BootstrapStallRatio(rng, pts, 200, 0.95)
		actual := StallRatio(pts)
		if iv.Lo <= actual && actual <= iv.Hi {
			covered++
		}
		if iv.Lo > iv.Point || iv.Hi < iv.Point {
			t.Fatalf("CI [%v,%v] does not contain its own point %v", iv.Lo, iv.Hi, iv.Point)
		}
	}
	if covered < trials*9/10 {
		t.Fatalf("bootstrap covered its own sample ratio only %d/%d times", covered, trials)
	}
}

func TestBootstrapWidthShrinksWithData(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	gen := func(n int) []StreamPoint {
		pts := make([]StreamPoint, n)
		for i := range pts {
			w := 60 + rng.ExpFloat64()*240
			s := 0.0
			if rng.Float64() < 0.05 {
				s = rng.ExpFloat64() * 20
			}
			pts[i] = StreamPoint{Watch: w, Stall: s}
		}
		return pts
	}
	small := BootstrapStallRatio(rng, gen(200), 300, 0.95)
	large := BootstrapStallRatio(rng, gen(5000), 300, 0.95)
	if large.RelativeHalfWidth() >= small.RelativeHalfWidth() {
		t.Fatalf("more data did not shrink CI: %v vs %v", large.RelativeHalfWidth(), small.RelativeHalfWidth())
	}
}

func TestBootstrapDegenerate(t *testing.T) {
	iv := BootstrapStallRatio(rand.New(rand.NewSource(3)), nil, 100, 0.95)
	if iv.Point != 0 || iv.Lo != 0 || iv.Hi != 0 {
		t.Fatalf("empty bootstrap = %+v", iv)
	}
}

func TestIntervalOverlap(t *testing.T) {
	a := Interval{Point: 1, Lo: 0.5, Hi: 1.5}
	b := Interval{Point: 2, Lo: 1.4, Hi: 2.5}
	c := Interval{Point: 3, Lo: 2.6, Hi: 3.5}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Fatal("a and b should overlap")
	}
	if a.Overlaps(c) || c.Overlaps(a) {
		t.Fatal("a and c should not overlap")
	}
	if got := a.Width(); got != 1.0 {
		t.Fatalf("Width = %v", got)
	}
}

func TestWeightedMeanSE(t *testing.T) {
	// All weight on one value: mean equals it, zero variance.
	iv := WeightedMeanSE([]float64{5, 100}, []float64{1, 0}, 0.95)
	if iv.Point != 5 || iv.Width() != 0 {
		t.Fatalf("degenerate weighted mean = %+v", iv)
	}
	// Uniform weights equal the plain mean.
	iv2 := WeightedMeanSE([]float64{1, 2, 3}, []float64{1, 1, 1}, 0.95)
	if math.Abs(iv2.Point-2) > 1e-12 {
		t.Fatalf("mean = %v, want 2", iv2.Point)
	}
	if !(iv2.Lo < 2 && 2 < iv2.Hi) {
		t.Fatalf("interval %+v should bracket the mean", iv2)
	}
}

func TestWeightedMeanSEPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WeightedMeanSE([]float64{1}, []float64{1, 2}, 0.95)
}

func TestMeanSEShrinksWithN(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	gen := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		return xs
	}
	small := MeanSE(gen(100), 0.95)
	large := MeanSE(gen(10000), 0.95)
	if large.Width() >= small.Width() {
		t.Fatalf("CI width did not shrink: %v vs %v", large.Width(), small.Width())
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	if got := Quantile(xs, 0); got != 1 {
		t.Fatalf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Fatalf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
}

func TestCCDF(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	if got := CCDFAt(xs, 1); got != 1.0 {
		t.Fatalf("first point = %v", got)
	}
	if got := CCDFAt(xs, 2); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("second point = %v", got)
	}
	if got := CCDFAt(xs, 3); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("third point = %v", got)
	}
	if CCDFAt(nil, 1) != 0 {
		t.Fatal("empty CCDF should be 0")
	}
}

func TestCCDFMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, 100)
		for i := range xs {
			xs[i] = rng.ExpFloat64() * 100
		}
		at := append([]float64(nil), xs...)
		sort.Float64s(at)
		for i := 1; i < len(at); i++ {
			if at[i] > at[i-1] && CCDFAt(xs, at[i]) >= CCDFAt(xs, at[i-1]) {
				return false
			}
		}
		return CCDFAt(xs, at[0]) == 1.0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCCDFAt(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if got := CCDFAt(xs, 2.5); got != 0.5 {
		t.Fatalf("CCDFAt(2.5) = %v, want 0.5", got)
	}
	if got := CCDFAt(xs, 0); got != 1 {
		t.Fatalf("CCDFAt(0) = %v, want 1", got)
	}
	if got := CCDFAt(nil, 1); got != 0 {
		t.Fatalf("empty CCDFAt = %v", got)
	}
}

// heavyDraw mimics the study's stream behavior: heavy-tailed watch times and
// rare bursty stalls, scaled by the scheme's true stall propensity.
func heavyDraw(rng *rand.Rand, scale float64) StreamPoint {
	w := 30 * math.Exp(1.3*rng.NormFloat64())
	s := 0.0
	if rng.Float64() < 0.03*scale {
		s = math.Min(w*0.5, rng.ExpFloat64()*15)
	}
	return StreamPoint{Watch: w, Stall: s}
}

func TestDetectionRateRisesWithEffectAndData(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cfg := PowerConfig{Effect: 0.15, Trials: 20, BootstrapIters: 120, Conf: 0.95}
	smallN := DetectionRate(rng, cfg, 200, heavyDraw)
	bigEffect := PowerConfig{Effect: 0.9, Trials: 20, BootstrapIters: 120, Conf: 0.95}
	bigE := DetectionRate(rng, bigEffect, 200, heavyDraw)
	if bigE < smallN {
		t.Fatalf("larger effect should be easier to detect: %v vs %v", bigE, smallN)
	}
	// A 15% effect with few heavy-tailed streams is mostly invisible —
	// the paper's core statistical point.
	if smallN > 0.5 {
		t.Fatalf("15%% effect detected %v of the time with only 200 streams — too easy, model lacks heavy tails", smallN)
	}
}

func TestStreamYears(t *testing.T) {
	pts := []StreamPoint{{Watch: 365.25 * 24 * 3600 / 2}, {Watch: 365.25 * 24 * 3600 / 2}}
	if got := StreamYears(pts); math.Abs(got-1) > 1e-12 {
		t.Fatalf("StreamYears = %v, want 1", got)
	}
}

func TestQuantileSortedInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := quantileSorted(xs, 0.25); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("q0.25 = %v, want 2.5", got)
	}
}

func TestZForLevels(t *testing.T) {
	if zFor(0.95) != 1.96 || zFor(0.99) != 2.576 {
		t.Fatal("z quantiles wrong")
	}
	if !(zFor(0.5) < zFor(0.95)) {
		t.Fatal("z must grow with confidence")
	}
}
