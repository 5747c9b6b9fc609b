package core

import (
	"math"
	"math/rand"
	"testing"

	"puffer/internal/abr"
	"puffer/internal/media"
	"puffer/internal/player"
	"puffer/internal/tcpsim"
)

// batchObs builds a randomized observation with a full ladder horizon and a
// noisy history, representative of a mid-stream MPC decision.
func batchObs(rng *rand.Rand, nQ, horizon int) *abr.Observation {
	chunks := make([]media.Chunk, horizon)
	for i := range chunks {
		vs := make([]media.Encoding, nQ)
		for q := range vs {
			vs[q] = media.Encoding{
				Size:   float64(q+1) * (1.5e5 + rng.Float64()*2e5),
				SSIMdB: 10 + float64(q) + rng.Float64(),
			}
		}
		chunks[i] = media.Chunk{Index: i, Versions: vs}
	}
	nHist := rng.Intn(abr.HistoryLen + 1)
	hist := make([]abr.ChunkRecord, nHist)
	tput := 1e6 + rng.Float64()*20e6
	for i := range hist {
		size := 2e5 + rng.Float64()*2e6
		hist[i] = abr.ChunkRecord{
			Size:      size,
			TransTime: size * 8 / (tput * (0.6 + 0.8*rng.Float64())),
			SSIMdB:    11 + 4*rng.Float64(),
			Quality:   rng.Intn(nQ),
		}
	}
	lastQ := -1
	lastSSIM := 0.0
	if nHist > 0 {
		lastQ = hist[nHist-1].Quality
		lastSSIM = hist[nHist-1].SSIMdB
	}
	return &abr.Observation{
		ChunkIndex:  nHist,
		Buffer:      rng.Float64() * 15,
		LastQuality: lastQ,
		LastSSIM:    lastSSIM,
		History:     hist,
		TCP: tcpsim.Info{
			CWND:         10 + rng.Float64()*90,
			InFlight:     rng.Float64() * 50,
			MinRTT:       0.02 + rng.Float64()*0.1,
			RTT:          0.03 + rng.Float64()*0.15,
			DeliveryRate: tput,
		},
		Horizon: chunks,
	}
}

// TestFuguChooseMatchesReference is the end-to-end batching property test:
// over 100 seeded observations, the production MPC (batched TTP fill +
// factored value iteration) must pick the rung the memoized recursion of
// refRootValues picks — the first one with the strictly largest value, the
// planners' tie rule.
func TestFuguChooseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2020))
	ttp := NewTTP(rng, DefaultHorizon, nil, DefaultFeatures(), KindTransTime)
	fast := NewFugu(ttp)
	for trial := 0; trial < 100; trial++ {
		nQ := 2 + rng.Intn(9)
		obs := batchObs(rng, nQ, 1+rng.Intn(5))
		got := fast.Choose(obs)
		want := argmaxFirst(refRootValues(t, NewPredictor(ttp, ModeProbabilistic), obs))
		if got != want {
			t.Fatalf("trial %d: batched Choose = %d, reference = %d", trial, got, want)
		}
	}
}

// TestPointEstimateChooseMatchesReference repeats the property test for the
// deployed Point Estimate ablation, whose collapsed distributions stress the
// p == 0 skips in both planners. One-hot distributions also make exact
// value ties between rungs possible (e.g. several rungs all saturating the
// outage bin from an empty buffer); the factored iteration reassociates the
// same sums, so within a tied set its pick may differ from the reference by
// an ulp. A mismatch is therefore only a failure when the two chosen rungs'
// root values actually differ.
func TestPointEstimateChooseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	ttp := NewTTP(rng, DefaultHorizon, nil, DefaultFeatures(), KindTransTime)
	fast := abr.NewMPC("Fugu-PointEstimate", NewPredictor(ttp, ModePointEstimate))
	ties := 0
	for trial := 0; trial < 100; trial++ {
		obs := batchObs(rng, 10, 5)
		got := fast.Choose(obs)
		vals := refRootValues(t, NewPredictor(ttp, ModePointEstimate), obs)
		want := argmaxFirst(vals)
		if got == want {
			continue
		}
		tol := 1e-9 * (1 + math.Abs(vals[want]))
		if diff := math.Abs(vals[got] - vals[want]); diff > tol {
			t.Fatalf("trial %d: batched Choose = %d (v=%v), reference = %d (v=%v), diff %v",
				trial, got, vals[got], want, vals[want], diff)
		}
		ties++
	}
	if ties > 10 {
		t.Fatalf("%d/100 trials hit value ties; expected ties to be rare", ties)
	}
}

// argmaxFirst returns the first index holding the strictly largest value.
func argmaxFirst(vals []float64) int {
	best := 0
	for q, v := range vals {
		if v > vals[best] {
			best = q
		}
	}
	return best
}

// refRootValues recomputes the reference planner's root value for every rung
// of obs.Horizon[0] with an independent implementation of the paper's
// memoized recursion, filling one size per predictor call. It is the oracle
// the planner differentials pick from, and it tells genuine planner
// divergence from exact value ties.
func refRootValues(t *testing.T, pred abr.Predictor, obs *abr.Observation) []float64 {
	t.Helper()
	h, nQ := 5, len(obs.Horizon[0].Versions)
	if h > len(obs.Horizon) {
		h = len(obs.Horizon)
	}
	dists := map[[2]int][]float64{}
	for step := 0; step < h; step++ {
		for q := 0; q < nQ; q++ {
			dist := make([]float64, abr.NumBins)
			pred.PredictDistBatch(obs, step, []float64{obs.Horizon[step].Versions[q].Size}, dist)
			dists[[2]int{step, q}] = dist
		}
	}
	const bufStep = 0.25
	nBuf := int(player.BufferCap/bufStep) + 1
	bufBin := func(buf float64) int {
		i := int(buf/bufStep + 0.5)
		if i >= nBuf {
			i = nBuf - 1
		}
		if i < 0 {
			i = 0
		}
		return i
	}
	nextBuffer := func(buf, tt float64) float64 {
		b := math.Max(buf-tt, 0) + media.ChunkDuration
		if b > player.BufferCap {
			b = player.BufferCap
		}
		return b
	}
	memo := map[[3]int]float64{}
	var valueAt func(step int, buf float64, prevQ int) float64
	valueAt = func(step int, buf float64, prevQ int) float64 {
		if step >= h {
			return 0
		}
		bb := bufBin(buf)
		key := [3]int{step, bb, prevQ}
		if v, ok := memo[key]; ok {
			return v
		}
		bufQ := float64(bb) * bufStep
		prevSSIM := obs.Horizon[step-1].Versions[prevQ].SSIMdB
		best := math.Inf(-1)
		for q := 0; q < nQ; q++ {
			enc := obs.Horizon[step].Versions[q]
			v := 0.0
			for k, p := range dists[[2]int{step, q}] {
				if p == 0 {
					continue
				}
				tt := abr.BinValue(k)
				stall := math.Max(tt-bufQ, 0)
				v += p * (abr.ChunkQoE(enc.SSIMdB, prevSSIM, stall, true) + valueAt(step+1, nextBuffer(bufQ, tt), q))
			}
			if v > best {
				best = v
			}
		}
		memo[key] = best
		return best
	}
	vals := make([]float64, nQ)
	for q := 0; q < nQ; q++ {
		enc := obs.Horizon[0].Versions[q]
		v := 0.0
		for k, p := range dists[[2]int{0, q}] {
			if p == 0 {
				continue
			}
			tt := abr.BinValue(k)
			stall := math.Max(tt-obs.Buffer, 0)
			v += p * (abr.ChunkQoE(enc.SSIMdB, obs.LastSSIM, stall, obs.LastQuality >= 0) + valueAt(1, nextBuffer(obs.Buffer, tt), q))
		}
		vals[q] = v
	}
	return vals
}

func TestAssembleBatchMatchesAssemble(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cfgs := []FeatureConfig{
		DefaultFeatures(),
		{HistLen: 8, UseTCPInfo: true, UseProposedSize: false},
		{HistLen: 2, UseTCPInfo: false, UseProposedSize: true},
	}
	for _, cfg := range cfgs {
		obs := batchObs(rng, 5, 3)
		sizes := []float64{1e5, 4e5, 9e5, 2.2e6, 7e6}
		dim := cfg.Dim()
		batch := make([]float64, len(sizes)*dim)
		cfg.AssembleBatch(batch, obs.History, obs.TCP, sizes)
		row := make([]float64, dim)
		for r, size := range sizes {
			cfg.Assemble(row, obs.History, obs.TCP, size)
			for i := range row {
				if batch[r*dim+i] != row[i] {
					t.Fatalf("cfg %+v row %d feature %d: batch %v != scalar %v",
						cfg, r, i, batch[r*dim+i], row[i])
				}
			}
		}
	}
}

func TestPredictorBatchNoAllocSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ttp := NewTTP(rng, DefaultHorizon, nil, DefaultFeatures(), KindTransTime)
	p := NewPredictor(ttp, ModeProbabilistic)
	obs := batchObs(rng, 10, 5)
	sizes := make([]float64, 10)
	for q := range sizes {
		sizes[q] = obs.Horizon[0].Versions[q].Size
	}
	dists := make([]float64, 10*abr.NumBins)
	p.PredictDistBatch(obs, 0, sizes, dists) // warm the buffers
	allocs := testing.AllocsPerRun(50, func() {
		for step := 0; step < DefaultHorizon; step++ {
			p.PredictDistBatch(obs, step, sizes, dists)
		}
	})
	if allocs != 0 {
		t.Fatalf("PredictDistBatch allocates %v times per run after warmup, want 0", allocs)
	}
}

func TestLoadedTTPBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	ttp := NewTTP(rng, DefaultHorizon, nil, DefaultFeatures(), KindTransTime)
	loaded, err := Load(ttp.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	obs := batchObs(rng, 10, 5)
	sizes := make([]float64, 10)
	for q := range sizes {
		sizes[q] = obs.Horizon[0].Versions[q].Size
	}
	got := make([]float64, 10*abr.NumBins)
	want := make([]float64, 10*abr.NumBins)
	NewPredictor(loaded, ModeProbabilistic).PredictDistBatch(obs, 1, sizes, got)
	NewPredictor(ttp, ModeProbabilistic).PredictDistBatch(obs, 1, sizes, want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("loaded TTP batch output differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func BenchmarkPredictDistBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ttp := NewTTP(rng, DefaultHorizon, nil, DefaultFeatures(), KindTransTime)
	p := NewPredictor(ttp, ModeProbabilistic)
	obs := batchObs(rng, 10, 5)
	sizes := make([]float64, 10)
	for q := range sizes {
		sizes[q] = obs.Horizon[0].Versions[q].Size
	}
	dists := make([]float64, 10*abr.NumBins)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for step := 0; step < DefaultHorizon; step++ {
			p.PredictDistBatch(obs, step, sizes, dists)
		}
	}
}

func BenchmarkPredictDistScalar(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ttp := NewTTP(rng, DefaultHorizon, nil, DefaultFeatures(), KindTransTime)
	p := NewPredictor(ttp, ModeProbabilistic)
	obs := batchObs(rng, 10, 5)
	dist := make([]float64, abr.NumBins)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for step := 0; step < DefaultHorizon; step++ {
			for q := 0; q < 10; q++ {
				p.PredictDist(obs, step, obs.Horizon[step].Versions[q].Size, dist)
			}
		}
	}
}
