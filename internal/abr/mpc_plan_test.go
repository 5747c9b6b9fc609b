package abr

import (
	"math"
	"math/rand"
	"testing"
)

// plannerBufCaps are the client buffer sizes the planner tests walk: a grid
// of one chunk (everything lands in the top bin), a short one, two that are
// not multiples of BufStep apart from Puffer's 15 s, and two long ones where
// even the 14 s tail outcome has a non-stalling range.
var plannerBufCaps = []float64{2, 4, 14.9, 15, 30, 60}

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
	for _, bufCap := range plannerBufCaps {
		m := NewMPCHM()
		m.ensureScratch(bufCap, 5, 10)
		if want := int(bufCap/m.BufStep) + 1; m.nBuf != want {
			t.Fatalf("cap %v: nBuf = %d, want %d", bufCap, m.nBuf, want)
		}
		if want := m.bufBin(math.Min(2.002, bufCap)); m.cdBin != want {
			t.Errorf("cap %v: cdBin = %d, want %d", bufCap, m.cdBin, want)
		}
		for bb := 0; bb < m.nBuf; bb++ {
			buf := float64(bb) * m.BufStep
			for k := 0; k < NumBins; k++ {
				if stalls := BinValue(k) > buf; stalls != (bb < int(m.lo[k])) {
					t.Fatalf("cap %v bin %d outcome %d: stalls = %v but lo = %d", bufCap, bb, k, stalls, m.lo[k])
				}
				if bb < int(m.lo[k]) {
					continue
				}
				want := m.bufBin(m.nextBuffer(buf, BinValue(k)))
				if got := min(bb+int(m.off[k]), m.nBuf-1); got != want {
					t.Fatalf("cap %v bin %d outcome %d: min(bb+off, top) = %d, bufBin(nextBuffer) = %d", bufCap, bb, k, got, want)
				}
				if int(m.off[k]) > m.pad {
					t.Fatalf("cap %v outcome %d: off %d exceeds the row padding %d", bufCap, k, m.off[k], m.pad)
				}
			}
		}
	}
}

// TestChooseMatchesReferenceAcrossBufferCaps changes obs.BufferCap (and with
// randomObs the ladder and the horizon) between consecutive decisions on one
// controller: tables or views left over from the previous grid would show as
// a rung that differs from the reference's. The one-hot predictor skips the
// two smallest grids, where every rung's outcome lands in the same top bin
// and the factored sum and the recursion break the resulting exact ties
// differently (the seed planner does too).
func TestChooseMatchesReferenceAcrossBufferCaps(t *testing.T) {
	cases := []struct {
		name string
		pred func() Predictor
		caps []float64
	}{
		{"hm", func() Predictor { return &HarmonicMeanPredictor{} }, plannerBufCaps[2:]},
		{"spread", func() Predictor { return spreadPredictor{} }, plannerBufCaps},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(77))
			fast := NewMPC("fast", tc.pred(), DefaultQoEWeights())
			ref := NewMPC("ref", tc.pred(), DefaultQoEWeights())
			for trial := 0; trial < 120; trial++ {
				obs := randomObs(rng)
				obs.BufferCap = tc.caps[rng.Intn(len(tc.caps))]
				obs.Buffer = rng.Float64() * obs.BufferCap
				if got, want := fast.Choose(obs), ref.ChooseReference(obs); got != want {
					t.Fatalf("trial %d cap %v: Choose = %d, ChooseReference = %d", trial, obs.BufferCap, got, want)
				}
			}
		})
	}
}
