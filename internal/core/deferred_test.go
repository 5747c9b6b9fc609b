package core

import (
	"math"
	"math/rand"
	"testing"

	"puffer/internal/abr"
	"puffer/internal/media"
)

// stagedObs builds one mid-stream observation with a 10-rung ladder.
func stagedObs(rng *rand.Rand) *abr.Observation {
	horizon := make([]media.Chunk, 5)
	for i := range horizon {
		vs := make([]media.Encoding, 10)
		for q := range vs {
			vs[q] = media.Encoding{Size: float64(q+1) * 2e5, SSIMdB: 10 + float64(q)}
		}
		horizon[i] = media.Chunk{Versions: vs}
	}
	hist := make([]abr.ChunkRecord, abr.HistoryLen)
	for i := range hist {
		size := 3e5 + rng.Float64()*1e6
		hist[i] = abr.ChunkRecord{Size: size, TransTime: size * 8 / 8e6}
	}
	return &abr.Observation{
		ChunkIndex: len(hist), Buffer: rng.Float64() * 15,
		LastQuality: 4, LastSSIM: 13, History: hist, Horizon: horizon,
	}
}

// runPending executes staged steps the way an inference service would: one
// PredictDistBatch per step through the step's net, then Finish.
func runPending(d *DeferredPredictor) {
	for _, ps := range d.Pending() {
		probs := make([]float64, ps.Rows*abr.NumBins)
		ws := ps.Net.NewBatchWorkspace(ps.Rows)
		ps.Net.PredictDistBatch(ws, ps.Feats, ps.Rows, probs)
		ps.Finish(probs)
	}
	d.Clear()
}

// TestDeferredPredictorMatchesDirect: staging + external execution must
// produce bitwise-identical distributions to the direct batched path, for
// every TTP kind and prediction mode.
func TestDeferredPredictorMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	kinds := []struct {
		name string
		kind Kind
		mode Mode
	}{
		{"transtime-prob", KindTransTime, ModeProbabilistic},
		{"transtime-point", KindTransTime, ModePointEstimate},
		{"throughput-prob", KindThroughput, ModeProbabilistic},
	}
	for _, k := range kinds {
		ttp := NewTTP(rng, DefaultHorizon, nil, DefaultFeatures(), k.kind)
		direct := NewPredictor(ttp, k.mode)
		deferred := NewDeferredPredictor(NewPredictor(ttp, k.mode))
		for trial := 0; trial < 10; trial++ {
			obs := stagedObs(rng)
			sizes := make([]float64, 10)
			for q := range sizes {
				sizes[q] = obs.Horizon[0].Versions[q].Size
			}
			for step := 0; step < DefaultHorizon+1; step++ { // +1 exercises clamping
				want := make([]float64, len(sizes)*abr.NumBins)
				direct.PredictDistBatch(obs, step, sizes, want)
				got := make([]float64, len(sizes)*abr.NumBins)
				deferred.PredictDistBatch(obs, step, sizes, got)
				deferred.PredictDistBatch(obs, step, sizes, got) // restage: last wins after Clear cycle below
				deferred.Clear()
				deferred.PredictDistBatch(obs, step, sizes, got)
				runPending(deferred)
				for i := range want {
					if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
						t.Fatalf("%s step %d: dist[%d] = %v, want %v", k.name, step, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestDeferredFuguDecisionsMatch: a whole Fugu controller driven through
// the deferred split (stage, execute pending, finish) must pick the same
// rungs as the direct controller.
func TestDeferredFuguDecisionsMatch(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	ttp := NewTTP(rng, DefaultHorizon, nil, DefaultFeatures(), KindTransTime)
	direct := NewFugu(ttp)
	split := NewFugu(ttp)
	dp := NewDeferredPredictor(split.Pred.(*Predictor))
	split.Pred = dp
	for trial := 0; trial < 25; trial++ {
		obs := stagedObs(rng)
		want := direct.Choose(obs)
		split.PrepareChoose(obs)
		runPending(dp)
		got := split.FinishChoose(obs)
		if want != got {
			t.Fatalf("trial %d: direct chose %d, deferred chose %d", trial, want, got)
		}
	}
}
