package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"puffer/internal/abr"
	"puffer/internal/nn"
	"puffer/internal/tcpsim"
)

func TestFeatureConfigDim(t *testing.T) {
	cases := []struct {
		cfg  FeatureConfig
		want int
	}{
		{DefaultFeatures(), 22},
		{FeatureConfig{HistLen: 8, UseTCPInfo: false, UseProposedSize: true}, 17},
		{FeatureConfig{HistLen: 2, UseTCPInfo: true, UseProposedSize: true}, 10},
		{FeatureConfig{HistLen: 8, UseTCPInfo: true, UseProposedSize: false}, 21},
	}
	for i, c := range cases {
		if got := c.cfg.Dim(); got != c.want {
			t.Errorf("case %d: Dim = %d, want %d", i, got, c.want)
		}
	}
}

func TestAssemblePaddingAndOrder(t *testing.T) {
	cfg := DefaultFeatures()
	dst := make([]float64, cfg.Dim())
	hist := []abr.ChunkRecord{
		{Size: 1e6, TransTime: 0.5},
		{Size: 2e6, TransTime: 1.5},
	}
	info := tcpsim.Info{CWND: 50, InFlight: 25, MinRTT: 0.04, RTT: 0.05, DeliveryRate: 20e6}
	cfg.Assemble(dst, hist, info, 3e6)

	// Sizes: slots 0..7, newest last. With 2 records, slots 6 and 7.
	for i := 0; i < 6; i++ {
		if dst[i] != 0 {
			t.Fatalf("size slot %d = %v, want zero padding", i, dst[i])
		}
	}
	if dst[6] != 1.0 || dst[7] != 2.0 {
		t.Fatalf("size slots = %v,%v want 1,2 (MB)", dst[6], dst[7])
	}
	// Times: slots 8..15.
	if dst[14] != 0.5 || dst[15] != 1.5 {
		t.Fatalf("time slots = %v,%v want 0.5,1.5", dst[14], dst[15])
	}
	// TCP: slots 16..20.
	if dst[16] != 0.5 || dst[17] != 0.25 {
		t.Fatalf("cwnd/inflight = %v,%v", dst[16], dst[17])
	}
	if math.Abs(dst[18]-0.4) > 1e-12 || math.Abs(dst[19]-0.5) > 1e-12 {
		t.Fatalf("rtt features = %v,%v", dst[18], dst[19])
	}
	if dst[20] != 2.0 {
		t.Fatalf("delivery rate feature = %v, want 2.0", dst[20])
	}
	// Proposed size last.
	if dst[21] != 3.0 {
		t.Fatalf("proposed size = %v, want 3.0", dst[21])
	}
}

func TestAssembleTruncatesLongHistory(t *testing.T) {
	cfg := FeatureConfig{HistLen: 2, UseTCPInfo: false, UseProposedSize: true}
	dst := make([]float64, cfg.Dim())
	hist := make([]abr.ChunkRecord, 10)
	for i := range hist {
		hist[i] = abr.ChunkRecord{Size: float64(i) * 1e6, TransTime: float64(i)}
	}
	cfg.Assemble(dst, hist, tcpsim.Info{}, 1e6)
	if dst[0] != 8.0 || dst[1] != 9.0 {
		t.Fatalf("sizes = %v,%v want most recent two (8,9)", dst[0], dst[1])
	}
}

func TestAssembleClipsAbsurdTimes(t *testing.T) {
	cfg := FeatureConfig{HistLen: 1, UseTCPInfo: false, UseProposedSize: false}
	dst := make([]float64, cfg.Dim())
	cfg.Assemble(dst, []abr.ChunkRecord{{Size: 1e6, TransTime: 500}}, tcpsim.Info{}, 0)
	if dst[1] != 20 {
		t.Fatalf("transmission time not clipped: %v", dst[1])
	}
}

func TestThroughputBinsMonotoneRoundtrip(t *testing.T) {
	prev := -1.0
	for i := 0; i < abr.NumBins; i++ {
		v := ThroughputBinValue(i)
		if v <= prev {
			t.Fatalf("bin %d value %v not increasing", i, v)
		}
		if got := ThroughputBinIndex(v); got != i {
			t.Fatalf("roundtrip bin %d -> %d", i, got)
		}
		prev = v
	}
	if ThroughputBinIndex(1) != 0 {
		t.Fatal("tiny throughput should be bin 0")
	}
	if ThroughputBinIndex(1e12) != abr.NumBins-1 {
		t.Fatal("huge throughput should be the last bin")
	}
}

func TestTTPLabel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tt := NewTTP(rng, 1, nil, DefaultFeatures(), KindTransTime)
	if got := tt.Label(1e6, 0.6); got != abr.BinIndex(0.6) {
		t.Fatalf("trans-time label = %d", got)
	}
	tp := NewTTP(rng, 1, nil, FeatureConfig{HistLen: 8, UseTCPInfo: true}, KindThroughput)
	if got := tp.Label(1e6, 2); got != ThroughputBinIndex(4e6) {
		t.Fatalf("throughput label = %d, want bin of 4 Mbps", got)
	}
	if got := tp.Label(1e6, 0); got != abr.NumBins-1 {
		t.Fatalf("degenerate time label = %d", got)
	}
}

func TestTTPSaveLoadRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	orig := NewTTP(rng, 3, nil, DefaultFeatures(), KindTransTime)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Horizon() != 3 || got.Cfg != orig.Cfg || got.Kind != orig.Kind {
		t.Fatalf("roundtrip metadata mismatch: %+v", got)
	}
	x := make([]float64, orig.Cfg.Dim())
	for i := range x {
		x[i] = rng.Float64()
	}
	a := forwardOne(orig.Nets[1], x)
	b := forwardOne(got.Nets[1], x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("roundtripped TTP differs")
		}
	}
}

// forwardOne returns net's logits for one sample as plain dot products over
// its current W and B (ascending input order from the bias, one multiply and
// one add rounding per term, ReLU on the hidden layers): the tests' oracle,
// with no packed snapshot on its path.
func forwardOne(net *nn.MLP, x []float64) []float64 {
	last := net.NumLayers() - 1
	for l := 0; l <= last; l++ {
		nIn := net.Sizes[l]
		out := make([]float64, net.Sizes[l+1])
		for o := range out {
			a := net.B[l][o]
			for i, w := range net.W[l][o*nIn : (o+1)*nIn] {
				a += float64(w * x[i])
			}
			if l != last && !(a > 0) {
				a = 0
			}
			out[o] = a
		}
		x = out
	}
	return x
}

// TestLoadRejectsInconsistentNets: a model whose networks are structurally
// inconsistent must come back from Load as an nn.ErrBadModel — not a panic,
// and not a model with the missing weights zero-filled. Every case goes through
// checkNets, and through Load's bytes wherever gob can carry it (it refuses
// to encode a nil element).
func TestLoadRejectsInconsistentNets(t *testing.T) {
	cfg := DefaultFeatures()
	valid := func() *nn.MLP {
		return NewTTP(rand.New(rand.NewSource(3)), 1, []int{8}, cfg, KindTransTime).Nets[0]
	}
	cases := map[string]func() *nn.MLP{
		"empty Sizes": func() *nn.MLP { return &nn.MLP{} },
		"one extra weight layer": func() *nn.MLP {
			net := valid()
			net.W = append(net.W, make([]float64, 4))
			net.B = append(net.B, make([]float64, 2))
			return net
		},
		"first-layer weights truncated": func() *nn.MLP {
			net := valid()
			net.W[0] = net.W[0][:3]
			return net
		},
		"nil entry": func() *nn.MLP { return nil },
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked: %v", r)
				}
			}()
			if err := checkNets(cfg, []*nn.MLP{valid(), corrupt()}); !errors.Is(err, nn.ErrBadModel) {
				t.Fatalf("checkNets returned %v, want nn.ErrBadModel", err)
			}
			if corrupt() == nil {
				return // no bytes can hold it
			}
			var buf bytes.Buffer
			m := ttpModel{Cfg: cfg, Kind: KindTransTime, Nets: []*nn.MLP{valid(), corrupt()}}
			if err := gob.NewEncoder(&buf).Encode(&m); err != nil {
				t.Fatal(err)
			}
			if ttp, err := Load(&buf); !errors.Is(err, nn.ErrBadModel) {
				t.Fatalf("Load returned %v (a model: %v), want nn.ErrBadModel", err, ttp != nil)
			}
		})
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Fatal("accepted garbage")
	}
}

// oversizedModel is a model whose header claims sizes no bytes pay for:
// HistLen 2^61 makes the feature dim 2^62, and the one net claims widths
// [2^62, 4, 21] over an empty first weight layer, so an unchecked
// 2^62 × 4 wraps to the layer's length 0. shrinkHist keeps a valid HistLen,
// so only the width bound stands between the net and NewPredictor.
func oversizedModel(shrinkHist bool) ttpModel {
	cfg := FeatureConfig{HistLen: 1 << 61}
	if shrinkHist {
		cfg = DefaultFeatures()
	}
	net := &nn.MLP{
		Sizes: []int{1 << 62, 4, 21},
		W:     [][]float64{{}, make([]float64, 4*21)},
		B:     [][]float64{make([]float64, 4), make([]float64, 21)},
	}
	return ttpModel{Cfg: cfg, Kind: KindTransTime, Nets: []*nn.MLP{net}}
}

// TestLoadRejectsOversizedModel: a model whose claimed sizes overflow is
// refused by Load with nn.ErrBadModel, whichever check meets it first.
func TestLoadRejectsOversizedModel(t *testing.T) {
	for _, shrinkHist := range []bool{false, true} {
		var buf bytes.Buffer
		m := oversizedModel(shrinkHist)
		if err := gob.NewEncoder(&buf).Encode(&m); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(&buf); !errors.Is(err, nn.ErrBadModel) {
			t.Fatalf("HistLen %d: Load returned %v, want nn.ErrBadModel", m.Cfg.HistLen, err)
		}
	}
}

// FuzzLoadTTP: any bytes are either refused by Load or load a model that
// serves one batched prediction without panicking. The seeds in
// testdata/fuzz/FuzzLoadTTP are a valid one-step model and
// oversizedModel(false).
func FuzzLoadTTP(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		ttp, err := Load(bytes.NewReader(blob))
		if err != nil {
			return
		}
		obs := batchObs(rand.New(rand.NewSource(1)), 10, 5)
		sizes := make([]float64, 10)
		for q := range sizes {
			sizes[q] = obs.Horizon[0].Versions[q].Size
		}
		NewPredictor(ttp, ModeProbabilistic).PredictDistBatch(obs, 0, sizes, make([]float64, 10*abr.NumBins))
	})
}

func TestCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewTTP(rng, 2, nil, DefaultFeatures(), KindTransTime)
	b := a.Clone()
	a.Nets[0].W[0][0] += 42
	if b.Nets[0].W[0][0] == a.Nets[0].W[0][0] {
		t.Fatal("clone shares storage")
	}
}

func TestPredictorProbabilisticSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ttp := NewTTP(rng, DefaultHorizon, nil, DefaultFeatures(), KindTransTime)
	p := NewPredictor(ttp, ModeProbabilistic)
	obs := &abr.Observation{TCP: tcpsim.Info{CWND: 10, MinRTT: 0.04, RTT: 0.05, DeliveryRate: 5e6}}
	dist := make([]float64, abr.NumBins)
	for step := 0; step < DefaultHorizon+2; step++ { // beyond-horizon steps clamp
		p.PredictDist(obs, step, 1e6, dist)
		sum := 0.0
		for _, v := range dist {
			if v < 0 {
				t.Fatalf("negative probability at step %d", step)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("step %d: dist sums to %v", step, sum)
		}
	}
}

func TestPredictorPointEstimateOneHot(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ttp := NewTTP(rng, 1, nil, DefaultFeatures(), KindTransTime)
	p := NewPredictor(ttp, ModePointEstimate)
	obs := &abr.Observation{TCP: tcpsim.Info{DeliveryRate: 5e6}}
	dist := make([]float64, abr.NumBins)
	p.PredictDist(obs, 0, 1e6, dist)
	ones, zeros := 0, 0
	for _, v := range dist {
		switch v {
		case 1:
			ones++
		case 0:
			zeros++
		}
	}
	if ones != 1 || zeros != abr.NumBins-1 {
		t.Fatalf("point estimate not one-hot: %v", dist)
	}
}

func TestThroughputKindConvertsToTimeDist(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := FeatureConfig{HistLen: 8, UseTCPInfo: true, UseProposedSize: false}
	ttp := NewTTP(rng, 1, nil, cfg, KindThroughput)
	p := NewPredictor(ttp, ModeProbabilistic)
	obs := &abr.Observation{TCP: tcpsim.Info{DeliveryRate: 5e6}}
	small := make([]float64, abr.NumBins)
	large := make([]float64, abr.NumBins)
	p.PredictDist(obs, 0, 1e5, small)
	p.PredictDist(obs, 0, 8e6, large)
	meanOf := func(d []float64) float64 {
		m := 0.0
		for i, pr := range d {
			m += pr * abr.BinValue(i)
		}
		return m
	}
	if !(meanOf(large) > meanOf(small)) {
		t.Fatal("larger proposed size must shift time distribution upward")
	}
	sum := 0.0
	for _, v := range large {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("converted dist sums to %v", sum)
	}
}

// synthDataset builds streams where transmission time follows
// T = rtt/2 + size*8/rate, rate is exposed in Info.DeliveryRate, and sizes
// vary — enough structure for the full TTP to shine over its ablations.
func synthDataset(rng *rand.Rand, streams, chunks int, day int) *Dataset {
	d := &Dataset{}
	for s := 0; s < streams; s++ {
		rate := 1e6 * math.Exp(rng.Float64()*3) // 1..20 Mbps
		rtt := 0.02 + rng.Float64()*0.2
		var st StreamObs
		for i := 0; i < chunks; i++ {
			// Rate drifts within the stream; delivery_rate tracks it.
			rate *= math.Exp(0.05 * rng.NormFloat64())
			size := (0.2 + rng.Float64()*2.8) * 1e6
			tt := rtt/2 + size*8/rate*math.Exp(0.05*rng.NormFloat64())
			st.Chunks = append(st.Chunks, ChunkObs{
				Size:      size,
				TransTime: tt,
				Info: tcpsim.Info{
					CWND: 2 * rate / 8 * rtt / tcpsim.MSS, InFlight: rate / 8 * rtt / tcpsim.MSS,
					MinRTT: rtt, RTT: rtt * 1.1, DeliveryRate: rate * math.Exp(0.03*rng.NormFloat64()),
				},
				Day: day,
			})
		}
		d.Streams = append(d.Streams, st)
	}
	return d
}

func TestTrainingImprovesLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	train := synthDataset(rng, 60, 30, 0)
	test := synthDataset(rng, 20, 30, 0)
	ttp := NewTTP(rand.New(rand.NewSource(8)), 1, []int{32, 32}, DefaultFeatures(), KindTransTime)
	before := EvaluateTransTimeMode(ttp, test, 0, ModeProbabilistic)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 10
	res, err := Train(ttp, train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := EvaluateTransTimeMode(ttp, test, 0, ModeProbabilistic)
	if !(after.CrossEntropy < before.CrossEntropy*0.8) {
		t.Fatalf("training did not improve held-out CE: %v -> %v", before.CrossEntropy, after.CrossEntropy)
	}
	if res.Examples[0] == 0 {
		t.Fatal("no examples reported")
	}
	if after.Within1 < 0.45 {
		t.Fatalf("Within1 = %v, want >= 0.45 on easy synthetic data", after.Within1)
	}
}

func TestFigure7ShapeOnSynthetic(t *testing.T) {
	// Package-scale version of Figure 7: the full TTP must beat the
	// linear model and the size-blind throughput predictor on held-out
	// transmission-time cross-entropy.
	if testing.Short() {
		t.Skip("training comparison skipped in -short")
	}
	rng := rand.New(rand.NewSource(9))
	train := synthDataset(rng, 80, 30, 0)
	test := synthDataset(rng, 30, 30, 0)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 6

	ce := map[Variant]float64{}
	for _, v := range []Variant{VariantFull, VariantLinear, VariantThroughput} {
		ttp := NewVariantTTP(rand.New(rand.NewSource(10)), v, 1)
		if _, err := Train(ttp, train, cfg); err != nil {
			t.Fatal(err)
		}
		ce[v] = EvaluateTransTimeMode(ttp, test, 0, ModeProbabilistic).CrossEntropy
	}
	if !(ce[VariantFull] < ce[VariantLinear]) {
		t.Errorf("full TTP CE %.3f not better than linear %.3f", ce[VariantFull], ce[VariantLinear])
	}
	if !(ce[VariantFull] < ce[VariantThroughput]) {
		t.Errorf("full TTP CE %.3f not better than throughput predictor %.3f", ce[VariantFull], ce[VariantThroughput])
	}
}

func TestRecencyWeightingFollowsRecentDays(t *testing.T) {
	// Two regimes: old days say "fast network", recent days say "slow".
	// With strong recency weighting the model must predict slow.
	rng := rand.New(rand.NewSource(11))
	d := &Dataset{}
	mk := func(rate float64, day, n int) {
		for s := 0; s < n; s++ {
			var st StreamObs
			for i := 0; i < 20; i++ {
				size := 1e6
				st.Chunks = append(st.Chunks, ChunkObs{
					Size: size, TransTime: size * 8 / rate,
					Info: tcpsim.Info{DeliveryRate: 5e6, RTT: 0.05, MinRTT: 0.04, CWND: 40, InFlight: 20},
					Day:  day,
				})
			}
			d.Streams = append(d.Streams, st)
		}
	}
	mk(16e6, 0, 30) // old: 1e6 bytes in 0.5 s -> bin 1
	mk(2e6, 13, 30) // recent: 4 s -> bin 8
	_ = rng

	cfg := DefaultTrainConfig()
	cfg.Epochs = 10
	cfg.RecencyBase = 0.5 // aggressive
	ttp := NewTTP(rand.New(rand.NewSource(12)), 1, []int{16}, DefaultFeatures(), KindTransTime)
	if _, err := Train(ttp, d, cfg); err != nil {
		t.Fatal(err)
	}
	pred := NewPredictor(ttp, ModeProbabilistic)
	x := make([]float64, ttp.Cfg.Dim())
	hist := []abr.ChunkRecord{{Size: 1e6, TransTime: 4}}
	ttp.Cfg.Assemble(x, hist, tcpsim.Info{DeliveryRate: 5e6, RTT: 0.05, MinRTT: 0.04, CWND: 40, InFlight: 20}, 1e6)
	dist := make([]float64, abr.NumBins)
	pred.PredictFeaturesBatch(0, x, 1, dist)
	slowMass, fastMass := 0.0, 0.0
	for i, p := range dist {
		if i >= 6 {
			slowMass += p
		}
		if i <= 2 {
			fastMass += p
		}
	}
	if slowMass <= fastMass {
		t.Fatalf("recency weighting ignored: slow mass %.3f vs fast mass %.3f", slowMass, fastMass)
	}
}

func TestWindowDaysExcludesOldData(t *testing.T) {
	d := &Dataset{}
	var st StreamObs
	for i := 0; i < 10; i++ {
		st.Chunks = append(st.Chunks, ChunkObs{Size: 1e6, TransTime: 1, Day: 0})
	}
	d.Streams = append(d.Streams, st)
	var st2 StreamObs
	for i := 0; i < 10; i++ {
		st2.Chunks = append(st2.Chunks, ChunkObs{Size: 1e6, TransTime: 1, Day: 20})
	}
	d.Streams = append(d.Streams, st2)

	ttp := NewTTP(rand.New(rand.NewSource(13)), 1, []int{4}, DefaultFeatures(), KindTransTime)
	xsAll, _, _ := d.Examples(ttp, 0, TrainConfig{})
	xsWin, _, _ := d.Examples(ttp, 0, TrainConfig{WindowDays: 14})
	if len(xsWin) >= len(xsAll) {
		t.Fatalf("window did not exclude old data: %d vs %d", len(xsWin), len(xsAll))
	}
	if len(xsWin) != 10 {
		t.Fatalf("windowed examples = %d, want 10 (recent stream only)", len(xsWin))
	}
}

func TestExamplesStepOffset(t *testing.T) {
	// For step k the label must come from chunk i+k.
	d := &Dataset{Streams: []StreamObs{{Chunks: []ChunkObs{
		{Size: 1e6, TransTime: 0.1},
		{Size: 1e6, TransTime: 2.0},
		{Size: 1e6, TransTime: 6.0},
	}}}}
	ttp := NewTTP(rand.New(rand.NewSource(14)), 3, []int{4}, DefaultFeatures(), KindTransTime)
	_, labels0, _ := d.Examples(ttp, 0, TrainConfig{})
	_, labels2, _ := d.Examples(ttp, 2, TrainConfig{})
	if len(labels0) != 3 || len(labels2) != 1 {
		t.Fatalf("example counts = %d,%d want 3,1", len(labels0), len(labels2))
	}
	if labels2[0] != abr.BinIndex(6.0) {
		t.Fatalf("step-2 label = %d, want bin of 6.0 s", labels2[0])
	}
}

func TestTrainErrorsOnEmptyDataset(t *testing.T) {
	ttp := NewTTP(rand.New(rand.NewSource(15)), 1, []int{4}, DefaultFeatures(), KindTransTime)
	if _, err := Train(ttp, &Dataset{}, DefaultTrainConfig()); err == nil {
		t.Fatal("expected error for empty dataset")
	}
}

func TestVariantConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, v := range AllVariants() {
		ttp := NewVariantTTP(rng, v, 2)
		if ttp.Horizon() != 2 {
			t.Fatalf("%s: horizon %d", v, ttp.Horizon())
		}
		switch v {
		case VariantLinear:
			if ttp.Nets[0].NumLayers() != 1 {
				t.Fatalf("linear variant has %d layers", ttp.Nets[0].NumLayers())
			}
		case VariantThroughput:
			if ttp.Kind != KindThroughput || ttp.Cfg.UseProposedSize {
				t.Fatalf("throughput variant misconfigured: %+v", ttp.Cfg)
			}
		case VariantNoTCPInfo:
			if ttp.Cfg.UseTCPInfo {
				t.Fatal("no-tcp_info variant still uses tcp_info")
			}
		case VariantShortHistory:
			if ttp.Cfg.HistLen != 2 {
				t.Fatalf("short-history variant HistLen = %d", ttp.Cfg.HistLen)
			}
		}
		if VariantMode(v) == ModePointEstimate && v != VariantPointEstimate {
			t.Fatalf("%s should be probabilistic", v)
		}
	}
}

func TestFuguSchemeNames(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ttp := NewTTP(rng, DefaultHorizon, []int{8}, DefaultFeatures(), KindTransTime)
	if got := NewFugu(ttp).Name(); got != "Fugu" {
		t.Fatalf("name = %q", got)
	}
	if got := NewFuguNamed("Emulation-trained Fugu", ttp).Name(); got != "Emulation-trained Fugu" {
		t.Fatalf("name = %q", got)
	}
}

func TestDatasetStats(t *testing.T) {
	d := &Dataset{Streams: []StreamObs{
		{Chunks: []ChunkObs{{Day: 1}, {Day: 3}}},
		{Chunks: []ChunkObs{{Day: 2}}},
	}}
	if d.NumChunks() != 3 {
		t.Fatalf("NumChunks = %d", d.NumChunks())
	}
	if d.MaxDay() != 3 {
		t.Fatalf("MaxDay = %d", d.MaxDay())
	}
}

func TestAssembleNeverProducesNaN(t *testing.T) {
	cfg := DefaultFeatures()
	f := func(size, tt, rtt float64) bool {
		dst := make([]float64, cfg.Dim())
		hist := []abr.ChunkRecord{{Size: math.Abs(size), TransTime: math.Abs(tt)}}
		info := tcpsim.Info{CWND: 10, InFlight: 5, MinRTT: math.Abs(rtt), RTT: math.Abs(rtt) * 1.2, DeliveryRate: 1e6}
		cfg.Assemble(dst, hist, info, math.Abs(size))
		for _, v := range dst {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTTPForward(b *testing.B) {
	// The paper: a TTP forward pass costs well under 0.3 ms.
	rng := rand.New(rand.NewSource(1))
	ttp := NewTTP(rng, 1, nil, DefaultFeatures(), KindTransTime)
	p := NewPredictor(ttp, ModeProbabilistic)
	x := make([]float64, ttp.Cfg.Dim())
	dist := make([]float64, abr.NumBins)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PredictFeaturesBatch(0, x, 1, dist)
	}
}
