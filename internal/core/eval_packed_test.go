package core

import (
	"math"
	"math/rand"
	"testing"

	"puffer/internal/abr"
	"puffer/internal/nn"
)

// portableEvalTransTime recomputes EvaluateTransTimeMode one row at a time
// through Predictor.PredictFeaturesBatch, as the reference the row-block
// sweep must match bitwise.
func portableEvalTransTime(t *TTP, data *Dataset, step int, mode Mode) EvalResult {
	xs, sizes, ttLabels := transTimeExamples(t, data, step)
	if len(xs) == 0 {
		return EvalResult{}
	}
	pred := NewPredictor(t, mode)
	raw := make([]float64, abr.NumBins)
	dist := make([]float64, abr.NumBins)
	var ce float64
	var hit, near int
	for i, x := range xs {
		pred.PredictFeaturesBatch(step, x, 1, raw)
		pred.finishDist(dist, raw, sizes[i])
		p := dist[ttLabels[i]]
		if p < 1e-12 {
			p = 1e-12
		}
		ce += -math.Log(p)
		am := nn.ArgMax(dist)
		if am == ttLabels[i] {
			hit++
		}
		if am >= ttLabels[i]-1 && am <= ttLabels[i]+1 {
			near++
		}
	}
	n := float64(len(xs))
	return EvalResult{CrossEntropy: ce / n, Accuracy: float64(hit) / n, Within1: float64(near) / n}
}

// TestEvaluatePackedMatchesPortable: the evaluation sweeps run on packed
// (SIMD) snapshots of the per-step nets; every metric must equal the
// portable-kernel reference bitwise, for both the trans-time and the
// throughput-kind TTP and for both prediction modes.
func TestEvaluatePackedMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	data := synthDataset(rng, 12, 40, 0)

	for _, kind := range []Kind{KindTransTime, KindThroughput} {
		ttp := NewTTP(rand.New(rand.NewSource(52)), 2, []int{24}, DefaultFeatures(), kind)
		cfg := DefaultTrainConfig()
		cfg.Epochs = 1
		if _, err := Train(ttp, data, cfg); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < ttp.Horizon(); step++ {
			for _, mode := range []Mode{ModeProbabilistic, ModePointEstimate} {
				got := EvaluateTransTimeMode(ttp, data, step, mode)
				want := portableEvalTransTime(ttp, data, step, mode)
				if got != want {
					t.Fatalf("kind %d step %d mode %d: EvaluateTransTimeMode = %+v, portable reference = %+v", kind, step, mode, got, want)
				}
			}
		}
	}
}
