package core

import (
	"math/rand"
	"sync"
	"testing"

	"puffer/internal/abr"
	"puffer/internal/nn"
)

// portableDists is the oracle for the tests below: the same assembly and
// the same finishing step as Predictor.PredictDistBatch, but with the
// forward pass run row by row as forwardOne's dot products over the net's
// current weights — no packed snapshot anywhere on the path.
func portableDists(p *Predictor, obs *abr.Observation, step int, sizes []float64) (raw, dists []float64) {
	net := p.TTP.Nets[p.clampStep(step)]
	b, d := len(sizes), p.TTP.Cfg.Dim()
	feats := make([]float64, b*d)
	p.TTP.Cfg.AssembleBatch(feats, obs.History, obs.TCP, sizes)
	raw = make([]float64, b*abr.NumBins)
	dists = make([]float64, b*abr.NumBins)
	for r := 0; r < b; r++ {
		nn.Softmax(raw[r*abr.NumBins:(r+1)*abr.NumBins], forwardOne(net, feats[r*d:(r+1)*d]))
		p.finishDist(dists[r*abr.NumBins:(r+1)*abr.NumBins], raw[r*abr.NumBins:(r+1)*abr.NumBins], sizes[r])
	}
	return raw, dists
}

func mustEqualBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: value %d = %v, portable oracle = %v (must be bitwise identical)", what, i, got[i], want[i])
		}
	}
}

// TestPredictorMatchesPortableOracle pins all four Predictor entry points,
// which run on the nets' packed snapshots, bitwise to the dot-product oracle:
// both kinds in both modes, every Figure 7 feature config and architecture
// (the linear ablation included), a TTP whose nets differ in shape, steps
// past the horizon, and batches that grow one predictor's buffers past
// defaultPredictBatch.
func TestPredictorMatchesPortableOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1313))
	type namedPredictor struct {
		name string
		p    *Predictor
	}
	var cases []namedPredictor
	add := func(name string, p *Predictor) { cases = append(cases, namedPredictor{name, p}) }
	for _, v := range AllVariants() {
		add(string(v), NewPredictor(NewVariantTTP(rng, v, 3), VariantMode(v)))
	}
	// The variants pair the throughput kind with the probabilistic mode
	// only; the fourth (kind, mode) combination is added by hand.
	add("throughput point estimate", NewPredictor(NewVariantTTP(rng, VariantThroughput, 2), ModePointEstimate))
	dim := DefaultFeatures().Dim()
	add("mixed shapes", NewPredictor(&TTP{Cfg: DefaultFeatures(), Kind: KindTransTime, Nets: []*nn.MLP{
		nn.NewMLP(rng, dim, 64, 64, abr.NumBins),
		nn.NewMLP(rng, dim, abr.NumBins),
		nn.NewMLP(rng, dim, 48, 17, abr.NumBins),
	}}, ModeProbabilistic))

	for _, c := range cases {
		p := c.p
		t.Run(c.name, func(t *testing.T) {
			obs := batchObs(rng, 10, 5)
			for _, b := range []int{1, 3, defaultPredictBatch, defaultPredictBatch + 1, 4*defaultPredictBatch - 3} {
				sizes := make([]float64, b)
				for i := range sizes {
					sizes[i] = 1e5 + rng.Float64()*4e6
				}
				for step := 0; step < p.TTP.Horizon()+2; step++ {
					wantRaw, want := portableDists(p, obs, step, sizes)

					got := make([]float64, b*abr.NumBins)
					p.PredictDistBatch(obs, step, sizes, got)
					mustEqualBits(t, "PredictDistBatch", got, want)

					one := make([]float64, abr.NumBins)
					for r, size := range sizes {
						p.PredictDist(obs, step, size, one)
						mustEqualBits(t, "PredictDist", one, want[r*abr.NumBins:(r+1)*abr.NumBins])
					}

					d := p.TTP.Cfg.Dim()
					feats := make([]float64, b*d)
					p.TTP.Cfg.AssembleBatch(feats, obs.History, obs.TCP, sizes)
					p.PredictFeaturesBatch(step, feats, b, got)
					mustEqualBits(t, "PredictFeaturesBatch", got, wantRaw)
					for r := 0; r < b; r++ {
						p.PredictFeaturesBatch(step, feats[r*d:(r+1)*d], 1, one)
						mustEqualBits(t, "PredictFeatures", one, wantRaw[r*abr.NumBins:(r+1)*abr.NumBins])
					}
				}
			}
		})
	}
}

// TestPredictorFollowsRetraining: a Predictor built before core.Train
// rewrites its TTP in place must serve the retrained weights afterwards —
// it resolves the snapshot per call, and every optimizer step drops it.
func TestPredictorFollowsRetraining(t *testing.T) {
	rng := rand.New(rand.NewSource(1314))
	ttp := NewTTP(rng, 2, []int{24}, DefaultFeatures(), KindTransTime)
	p := NewPredictor(ttp, ModeProbabilistic)
	obs := batchObs(rng, 10, 5)
	sizes := []float64{2e5, 9e5, 3e6}
	before := make([]float64, len(sizes)*abr.NumBins)
	p.PredictDistBatch(obs, 0, sizes, before)

	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	if _, err := Train(ttp, synthDataset(rng, 12, 40, 0), cfg); err != nil {
		t.Fatal(err)
	}
	after := make([]float64, len(sizes)*abr.NumBins)
	p.PredictDistBatch(obs, 0, sizes, after)
	_, want := portableDists(p, obs, 0, sizes)
	mustEqualBits(t, "PredictDistBatch after Train", after, want)
	same := true
	for i := range after {
		same = same && after[i] == before[i]
	}
	if same {
		t.Fatal("training did not move the predictions; the test cannot see a stale snapshot")
	}
}

// TestConcurrentFuguOnSharedTTP is the session engine's shape: many
// goroutines each build their own Fugu over one shared, never-yet-packed
// TTP and decide at once, so the first calls race to build each net's
// snapshot. Every goroutine must reproduce the serial decisions (run with
// -race).
func TestConcurrentFuguOnSharedTTP(t *testing.T) {
	rng := rand.New(rand.NewSource(1315))
	var observations []*abr.Observation
	for i := 0; i < 24; i++ {
		observations = append(observations, batchObs(rng, 2+rng.Intn(9), 1+rng.Intn(5)))
	}
	seed := NewTTP(rng, DefaultHorizon, nil, DefaultFeatures(), KindTransTime)
	serial := NewFugu(seed.Clone())
	want := make([]int, len(observations))
	for i, o := range observations {
		want[i] = serial.Choose(o)
	}

	shared := seed.Clone() // fresh clone: no net has a snapshot yet
	const goroutines = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			fugu := NewFugu(shared)
			for i, o := range observations {
				if got := fugu.Choose(o); got != want[i] {
					t.Errorf("goroutine %d observation %d: chose %d, serial run chose %d", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}
