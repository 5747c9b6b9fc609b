package abr

import (
	"math/rand"
	"testing"

	"puffer/internal/media"
)

// randomObs builds a randomized but well-formed observation: jittered ladder
// sizes and SSIMs, a noisy throughput history, and a random buffer level.
func randomObs(rng *rand.Rand) *Observation {
	nQ := 2 + rng.Intn(10)
	horizon := make([]media.Chunk, 1+rng.Intn(5))
	for i := range horizon {
		vs := make([]media.Encoding, nQ)
		for q := range vs {
			base := float64(q+1) * (1e5 + rng.Float64()*3e5)
			vs[q] = media.Encoding{
				Size:   base * (0.7 + 0.6*rng.Float64()),
				SSIMdB: 9 + float64(q) + 2*rng.Float64(),
			}
		}
		horizon[i] = media.Chunk{Versions: vs}
	}
	nHist := rng.Intn(HistoryLen + 1)
	hist := make([]ChunkRecord, nHist)
	tput := 0.3e6 + rng.Float64()*30e6
	lastQ := -1
	lastSSIM := 0.0
	for i := range hist {
		size := 2e5 + rng.Float64()*2e6
		factor := 0.5 + rng.Float64()
		hist[i] = ChunkRecord{Size: size, TransTime: size * 8 / (tput * factor)}
		lastSSIM, lastQ = 10+5*rng.Float64(), rng.Intn(nQ)
	}
	return &Observation{
		ChunkIndex:  nHist,
		Buffer:      rng.Float64() * 15,
		LastQuality: lastQ,
		LastSSIM:    lastSSIM,
		History:     hist,
		Horizon:     horizon,
	}
}

// TestChooseMatchesReference is the batching property test: across many
// seeded observations, the production planner (batched fill + factored value
// iteration) must pick the identical rung to the reference implementation
// (per-size fill + memoized recursion).
func TestChooseMatchesReference(t *testing.T) {
	preds := map[string]func() Predictor{
		"hm":     func() Predictor { return &HarmonicMeanPredictor{} },
		"robust": func() Predictor { return &HarmonicMeanPredictor{Robust: true} },
	}
	for name, mk := range preds {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			fast := NewMPC("fast", mk())
			ref := NewMPC("ref", mk())
			for trial := 0; trial < 200; trial++ {
				obs := randomObs(rng)
				got := fast.Choose(obs)
				want := ref.ChooseReference(obs)
				if got != want {
					t.Fatalf("trial %d: Choose = %d, ChooseReference = %d (obs %+v)",
						trial, got, want, obs)
				}
			}
		})
	}
}

func TestChooseZeroAllocSteadyState(t *testing.T) {
	m := NewMPCHM()
	obs := obsWith(7, histAtThroughput(8, 5e6), testChunks(5, 2.5e5))
	m.Choose(obs) // warm the scratch
	allocs := testing.AllocsPerRun(50, func() {
		m.Choose(obs)
	})
	if allocs != 0 {
		t.Fatalf("Choose allocates %v times per run after warmup, want 0", allocs)
	}
}

func BenchmarkMPCDecisionHM(b *testing.B) {
	obs := obsWith(7, histAtThroughput(8, 5e6), testChunks(5, 2.5e5))
	b.Run("batched", func(b *testing.B) {
		m := NewMPCHM()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Choose(obs)
		}
	})
	b.Run("reference", func(b *testing.B) {
		m := NewMPCHM()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.ChooseReference(obs)
		}
	})
}
