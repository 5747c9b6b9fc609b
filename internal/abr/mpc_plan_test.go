package abr

import (
	"math"
	"math/rand"
	"testing"

	"puffer/internal/player"
)

// spreadPredictor is a deterministic stand-in for the TTP: a full
// distribution with a few exact zeros, a function of (step, size) only, so
// the per-size fill of ChooseReference and the batched fill of Choose see
// the same numbers.
type spreadPredictor struct{}

func (spreadPredictor) PredictDistBatch(obs *Observation, step int, sizes []float64, dists []float64) {
	for q, size := range sizes {
		dist := dists[q*NumBins : (q+1)*NumBins]
		rng := rand.New(rand.NewSource(int64(math.Float64bits(size)>>8) + int64(step)))
		sum := 0.0
		for k := range dist {
			dist[k] = rng.ExpFloat64()
			if rng.Intn(4) == 0 {
				dist[k] = 0
			}
			sum += dist[k]
		}
		for k := range dist {
			dist[k] /= sum
		}
	}
}

// TestGridTablesMatchBufferDynamics pins the identity the shifted accumulate
// rests on, against the expression the tables are built from: outcome k does
// not stall from bin bb exactly when bb >= lo[k], and then it lands in
// min(bb+off[k], nBuf-1) — for every bin and outcome, not only at lo[k]
// where buildGrid reads the offset.
func TestGridTablesMatchBufferDynamics(t *testing.T) {
	if want := bufBin(2.002); cdBin != want {
		t.Errorf("cdBin = %d, want %d", cdBin, want)
	}
	for bb := 0; bb < nBuf; bb++ {
		buf := float64(bb) * bufStep
		for k := 0; k < NumBins; k++ {
			if stalls := BinValue(k) > buf; stalls != (bb < int(lo[k])) {
				t.Fatalf("bin %d outcome %d: stalls = %v but lo = %d", bb, k, stalls, lo[k])
			}
			if bb < int(lo[k]) {
				continue
			}
			want := bufBin(nextBuffer(buf, BinValue(k)))
			if got := min(bb+int(off[k]), nBuf-1); got != want {
				t.Fatalf("bin %d outcome %d: min(bb+off, top) = %d, bufBin(nextBuffer) = %d", bb, k, got, want)
			}
			if int(off[k]) > pad {
				t.Fatalf("outcome %d: off %d exceeds the row padding %d", k, off[k], pad)
			}
		}
	}
}

// TestChooseMatchesReferenceAcrossBufferCaps changes the ladder and the
// horizon (randomObs) between consecutive decisions on one controller, at
// Puffer's one buffer cap: views left over from the previous decision would
// show as a rung that differs from the reference's.
func TestChooseMatchesReferenceAcrossBufferCaps(t *testing.T) {
	cases := []struct {
		name string
		pred func() Predictor
	}{
		{"hm", func() Predictor { return &HarmonicMeanPredictor{} }},
		{"spread", func() Predictor { return spreadPredictor{} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			fast := NewMPC("fast", tc.pred())
			ref := NewMPC("ref", tc.pred())
			for trial := 0; trial < 120; trial++ {
				obs := randomObs(rng)
				obs.Buffer = rng.Float64() * player.BufferCap
				if got, want := fast.Choose(obs), ref.ChooseReference(obs); got != want {
					t.Fatalf("trial %d: Choose = %d, ChooseReference = %d", trial, got, want)
				}
			}
		})
	}
}
