package abr

import (
	"math/rand"
	"testing"

	"puffer/internal/media"
)

// deferredObs builds a batch of mid-stream observations over a 10-rung
// ladder with varied buffers and histories.
func deferredObs(n int, seed int64) []*Observation {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Observation, n)
	for s := range out {
		horizon := make([]media.Chunk, 5)
		for i := range horizon {
			vs := make([]media.Encoding, 10)
			for q := range vs {
				vs[q] = media.Encoding{
					Size:   float64(q+1) * (1e5 + rng.Float64()*2e5),
					SSIMdB: 9 + float64(q) + rng.Float64(),
				}
			}
			horizon[i] = media.Chunk{Index: i, Versions: vs}
		}
		hist := make([]ChunkRecord, rng.Intn(HistoryLen+1))
		for i := range hist {
			size := 2e5 + rng.Float64()*2e6
			hist[i] = ChunkRecord{
				Size: size, TransTime: size * 8 / (4e6 + rng.Float64()*2e7),
				SSIMdB: 11 + 5*rng.Float64(), Quality: rng.Intn(10),
			}
		}
		lastQ := -1
		lastSSIM := 0.0
		if len(hist) > 0 {
			lastQ = hist[len(hist)-1].Quality
			lastSSIM = hist[len(hist)-1].SSIMdB
		}
		out[s] = &Observation{
			ChunkIndex: len(hist), Buffer: rng.Float64() * 15,
			LastQuality: lastQ, LastSSIM: lastSSIM, History: hist, Horizon: horizon,
		}
	}
	return out
}

// TestMPCDeferredSplitEqualsChoose: PrepareChoose followed by FinishChoose
// must reproduce Choose decision for decision on fresh controllers —
// stateful predictors (RobustMPC's error memory) included.
func TestMPCDeferredSplitEqualsChoose(t *testing.T) {
	obsSet := deferredObs(40, 5)
	factories := map[string]func() *MPC{
		"MPC-HM":       NewMPCHM,
		"RobustMPC-HM": NewRobustMPCHM,
	}
	for name, mk := range factories {
		whole, split := mk(), mk()
		whole.Reset()
		split.Reset()
		for i, obs := range obsSet {
			want := whole.Choose(obs)
			split.PrepareChoose(obs)
			got := split.FinishChoose(obs)
			if want != got {
				t.Fatalf("%s obs %d: Choose=%d but Prepare+Finish=%d", name, i, want, got)
			}
		}
	}
}

// TestMPCDeferredEmptyHorizon: a zero-length horizon must be handled by the
// split exactly as by Choose.
func TestMPCDeferredEmptyHorizon(t *testing.T) {
	m := NewMPCHM()
	obs := &Observation{Horizon: nil}
	if got := m.Choose(obs); got != 0 {
		t.Fatalf("Choose on empty horizon = %d, want 0", got)
	}
	m.PrepareChoose(obs)
	if got := m.FinishChoose(obs); got != 0 {
		t.Fatalf("Prepare+Finish on empty horizon = %d, want 0", got)
	}
}

// TestExplorerDeferredSplitEqualsChoose: the Explorer must consume its
// exploration RNG in the same order through both paths, whether or not the
// base supports deferral.
func TestExplorerDeferredSplitEqualsChoose(t *testing.T) {
	obsSet := deferredObs(200, 9)
	bases := map[string]func() Algorithm{
		"deferred-base": func() Algorithm { return NewMPCHM() }, // implements DeferredAlgorithm
		"plain-base":    func() Algorithm { return NewBBA() },   // does not
	}
	for name, mk := range bases {
		whole := NewExplorer(mk(), 0.3, 77)
		split := NewExplorer(mk(), 0.3, 77)
		var wholeSeq, splitSeq []int
		for _, obs := range obsSet {
			wholeSeq = append(wholeSeq, whole.Choose(obs))
			split.PrepareChoose(obs)
			splitSeq = append(splitSeq, split.FinishChoose(obs))
		}
		for i := range wholeSeq {
			if wholeSeq[i] != splitSeq[i] {
				t.Fatalf("%s: decision %d differs: Choose=%d split=%d (RNG sequences diverged)",
					name, i, wholeSeq[i], splitSeq[i])
			}
		}
	}
}
