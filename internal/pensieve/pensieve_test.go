package pensieve

import (
	"math"
	"math/rand"
	"testing"

	"puffer/internal/abr"
	"puffer/internal/media"
	"puffer/internal/netem"
	"puffer/internal/nn"
	"puffer/internal/tcpsim"
	"puffer/internal/wire"
)

func testObs(buffer float64, tput float64) *abr.Observation {
	vs := make([]media.Encoding, NumActions)
	for q := range vs {
		vs[q] = media.Encoding{Size: float64(q+1) * 2.5e5, SSIMdB: 10 + float64(q)}
	}
	hist := make([]abr.ChunkRecord, 4)
	for i := range hist {
		hist[i] = abr.ChunkRecord{Size: 1e6, TransTime: 1e6 * 8 / tput}
	}
	return &abr.Observation{
		Buffer:      buffer,
		LastQuality: 3,
		History:     hist,
		TCP:         tcpsim.Info{DeliveryRate: tput},
		Horizon:     []media.Chunk{{Versions: vs}},
	}
}

func TestAssembleStateLayout(t *testing.T) {
	obs := testObs(7.5, 8e6)
	s := make([]float64, StateDim)
	assembleState(s, obs)
	// Four history entries right-aligned in the first 8 slots.
	for i := 0; i < 4; i++ {
		if s[i] != 0 {
			t.Fatalf("slot %d should be padding", i)
		}
	}
	if math.Abs(s[7]-0.8) > 1e-9 { // 8 Mbps / 10e6
		t.Fatalf("throughput slot = %v, want 0.8", s[7])
	}
	if math.Abs(s[15]-0.1) > 1e-9 { // 1 s / 10
		t.Fatalf("download-time slot = %v, want 0.1", s[15])
	}
	// Next-chunk sizes.
	if math.Abs(s[16]-0.25) > 1e-9 || math.Abs(s[25]-2.5) > 1e-9 {
		t.Fatalf("size slots = %v, %v", s[16], s[25])
	}
	if math.Abs(s[26]-0.75) > 1e-9 { // buffer/10
		t.Fatalf("buffer slot = %v, want 0.75", s[26])
	}
	if math.Abs(s[27]-0.3) > 1e-9 { // last quality 3/10
		t.Fatalf("last-quality slot = %v", s[27])
	}
	if s[28] != 1 {
		t.Fatalf("remaining-chunks slot = %v, want 1", s[28])
	}
}

func TestAssembleStateNoLastQuality(t *testing.T) {
	obs := testObs(5, 5e6)
	obs.LastQuality = -1
	s := make([]float64, StateDim)
	assembleState(s, obs)
	if s[27] != 0 {
		t.Fatalf("no-last-quality slot = %v, want 0", s[27])
	}
}

func TestAgentChoosesValidAction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewAgent(NewUntrainedPolicy(rng))
	if a.Name() != "Pensieve" {
		t.Fatalf("name = %q", a.Name())
	}
	for _, tput := range []float64{0.3e6, 3e6, 30e6} {
		q := a.Choose(testObs(5, tput))
		if q < 0 || q >= NumActions {
			t.Fatalf("invalid action %d", q)
		}
	}
	a.Reset()
}

func TestAgentDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := NewAgent(NewUntrainedPolicy(rng))
	obs := testObs(6, 4e6)
	if a.Choose(obs) != a.Choose(obs) {
		t.Fatal("deployment agent must be deterministic (argmax)")
	}
}

func TestQoEReward(t *testing.T) {
	enc := media.Encoding{Size: 2e6 / 8 * media.ChunkDuration} // 2 Mbps
	r := chunkReward(enc, -1, 0)
	if math.Abs(r-2) > 1e-9 {
		t.Fatalf("first-chunk reward = %v, want 2", r)
	}
	// Stall penalty.
	r2 := chunkReward(enc, -1, 1)
	if math.Abs(r2-(2-4.3)) > 1e-9 {
		t.Fatalf("stalled reward = %v", r2)
	}
	// Smoothness penalty vs a 4 Mbps previous chunk.
	r3 := chunkReward(enc, 4e6, 0)
	if math.Abs(r3-0) > 1e-9 {
		t.Fatalf("smoothness reward = %v, want 0 (2 - |2-4|)", r3)
	}
}

func TestSampleDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	probs := []float64{0.7, 0.2, 0.1}
	counts := make([]int, 3)
	for i := 0; i < 10000; i++ {
		counts[sample(rng, probs)]++
	}
	if counts[0] < 6500 || counts[0] > 7500 {
		t.Fatalf("action 0 sampled %d/10000, want ~7000", counts[0])
	}
	if counts[2] > 1500 {
		t.Fatalf("action 2 oversampled: %d", counts[2])
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := NewAgent(NewUntrainedPolicy(rng))
	policy := new(nn.MLP)
	if err := wire.Decode(a.Policy().AppendTo(nil), policy); err != nil {
		t.Fatal(err)
	}
	b := NewAgent(policy)
	obs := testObs(5, 5e6)
	if a.Choose(obs) != b.Choose(obs) {
		t.Fatal("roundtripped agent disagrees")
	}
}

func TestTrainingImprovesReward(t *testing.T) {
	if testing.Short() {
		t.Skip("RL training skipped in -short")
	}
	// Small-scale but real training: the trained policy must beat both an
	// untrained policy and the best fixed action on identical held-out
	// emulation episodes.
	cfg := DefaultTrainConfig()
	cfg.Episodes = 600
	cfg.ChunksPerEp = 100
	cfg.Seed = 7
	cfg.Paths = netem.FCCPaths{MaxRate: 16e6}
	agent, _ := Train(cfg)

	clip := media.EmulationClip()
	evalReward := func(choose func(*abr.Observation) int) float64 {
		rng := rand.New(rand.NewSource(99)) // identical episodes per policy
		total, n := 0.0, 0
		for ep := 0; ep < 25; ep++ {
			runEpisode(cfg, clip, rng, choose, func(r float64) {
				total += r
				n++
			})
		}
		return total / float64(n)
	}
	trained := evalReward(agent.Choose)
	untrained := evalReward(NewAgent(NewUntrainedPolicy(rand.New(rand.NewSource(8)))).Choose)
	fixed0 := evalReward(func(*abr.Observation) int { return 0 })
	if trained <= untrained {
		t.Fatalf("training did not help: trained %v vs untrained %v", trained, untrained)
	}
	if trained <= fixed0 {
		t.Fatalf("trained policy %v does not beat the best static action %v — no adaptation learned", trained, fixed0)
	}
}

func TestNewAgentPanicsOnWrongShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAgent(nn.NewMLP(rand.New(rand.NewSource(6)), 4, 4, 2))
}
