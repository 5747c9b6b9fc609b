package core

import (
	"math/rand"
	"testing"
)

// TestFuguChooseZeroAllocSteadyState is abr.TestChooseZeroAllocSteadyState's
// Fugu case (abr cannot import this package): a whole decision — five batched
// TTP fills and the value iteration over full distributions — allocates
// nothing once the predictor's and the planner's scratch exist, also when the
// horizon runs out at the end of a stream.
func TestFuguChooseZeroAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	fugu := NewFugu(NewTTP(rng, DefaultHorizon, nil, DefaultFeatures(), KindTransTime))
	obs := batchObs(rng, 10, DefaultHorizon)
	fugu.Choose(obs) // warm the scratch
	full := obs.Horizon
	allocs := testing.AllocsPerRun(50, func() {
		fugu.Choose(obs)
		obs.Horizon = full[:2]
		fugu.Choose(obs)
		obs.Horizon = full
	})
	if allocs != 0 {
		t.Fatalf("Fugu Choose allocates %v times per run after warmup, want 0", allocs)
	}
}
