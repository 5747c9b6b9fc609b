package experiment

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"puffer/internal/abr"
	"puffer/internal/core"
	"puffer/internal/stats"
	"puffer/internal/telemetry"
)

func bbaScheme() Scheme {
	return Scheme{Name: "BBA", New: func() abr.Algorithm { return abr.NewBBA() }}
}

func mpcScheme() Scheme {
	return Scheme{Name: "MPC-HM", New: func() abr.Algorithm { return abr.NewMPCHM() }}
}

func TestRunSessionProducesStreams(t *testing.T) {
	env := DefaultEnv()
	rng := rand.New(rand.NewSource(1))
	res := RunSessionHooked(&env, abr.NewBBA(), rng, 7, "BBA", 0, nil, nil)
	if len(res.Streams) == 0 {
		t.Fatal("session produced no streams")
	}
	if res.Scheme != "BBA" || res.Streams[0].SessionID != 7 {
		t.Fatalf("identity wrong: %+v", res)
	}
	if res.Duration <= 0 {
		t.Fatal("session duration not positive")
	}
	for _, s := range res.Streams {
		if s.PlayTime < 0 || s.StallTime < 0 || s.StartupDelay < 0 {
			t.Fatalf("negative times: %+v", s)
		}
	}
}

func TestRunSessionDeterministic(t *testing.T) {
	env := DefaultEnv()
	a := RunSessionHooked(&env, abr.NewBBA(), rand.New(rand.NewSource(3)), 1, "BBA", 0, nil, nil)
	env2 := DefaultEnv()
	b := RunSessionHooked(&env2, abr.NewBBA(), rand.New(rand.NewSource(3)), 1, "BBA", 0, nil, nil)
	if len(a.Streams) != len(b.Streams) || a.Duration != b.Duration {
		t.Fatalf("same-seed sessions differ: %d/%f vs %d/%f",
			len(a.Streams), a.Duration, len(b.Streams), b.Duration)
	}
	for i := range a.Streams {
		if a.Streams[i].PlayTime != b.Streams[i].PlayTime || a.Streams[i].SSIMMean != b.Streams[i].SSIMMean {
			t.Fatalf("stream %d differs", i)
		}
	}
}

func TestRunParallelDeterministic(t *testing.T) {
	cfg := Config{
		Env: DefaultEnv(), Schemes: []Scheme{bbaScheme(), mpcScheme()},
		Sessions: 30, Seed: 42,
	}
	serial, err := cfg.RunSharded(4, 1, AllPaths)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := cfg.RunSharded(4, 8, AllPaths)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("accumulators differ between 1 and 8 workers:\n%+v\nvs\n%+v", serial, parallel)
	}
}

func TestRunValidatesConfig(t *testing.T) {
	for _, c := range []struct {
		name      string
		cfg       Config
		shardSize int
	}{
		{"no schemes", Config{Env: DefaultEnv(), Sessions: 5}, DefaultShardSize},
		{"zero sessions", Config{Env: DefaultEnv(), Schemes: []Scheme{bbaScheme()}}, DefaultShardSize},
		{"zero shard size", Config{Env: DefaultEnv(), Schemes: []Scheme{bbaScheme()}, Sessions: 5}, 0},
		{"negative shard size", Config{Env: DefaultEnv(), Schemes: []Scheme{bbaScheme()}, Sessions: 5}, -1},
	} {
		if _, err := c.cfg.RunSharded(c.shardSize, 1, AllPaths); err == nil {
			t.Errorf("%s: expected an error", c.name)
		}
	}
}

func TestRandomizationRoughlyBalanced(t *testing.T) {
	cfg := Config{
		Env: DefaultEnv(), Schemes: []Scheme{bbaScheme(), mpcScheme()},
		Sessions: 200, Seed: 7,
	}
	acc, err := cfg.RunSharded(DefaultShardSize, 0, AllPaths)
	if err != nil {
		t.Fatal(err)
	}
	if len(acc.Schemes) != 2 {
		t.Fatalf("got %d arms, want 2", len(acc.Schemes))
	}
	for name, a := range acc.Schemes {
		if a.Sessions < 60 || a.Sessions > 140 {
			t.Fatalf("scheme %s got %d of 200 sessions — randomization skewed", name, a.Sessions)
		}
	}
}

func TestAnalyzeProducesSaneStats(t *testing.T) {
	cfg := Config{
		Env: DefaultEnv(), Schemes: []Scheme{bbaScheme()},
		Sessions: 120, Seed: 11,
	}
	acc, err := cfg.RunSharded(DefaultShardSize, 0, AllPaths)
	if err != nil {
		t.Fatal(err)
	}
	st := acc.Analyze(1)
	if len(st) != 1 {
		t.Fatalf("got %d scheme rows", len(st))
	}
	s := st[0]
	if s.Considered == 0 {
		t.Fatal("no streams considered")
	}
	if s.Considered+s.NeverPlayed+s.ShortWatch+s.BadDecoder != s.Streams {
		t.Fatalf("CONSORT accounting does not add up: %+v", s)
	}
	if s.SSIM.Point < 8 || s.SSIM.Point > 18 {
		t.Fatalf("mean SSIM %v outside plausible dB range", s.SSIM.Point)
	}
	if s.StallRatio.Point < 0 || s.StallRatio.Point > 0.2 {
		t.Fatalf("stall ratio %v implausible", s.StallRatio.Point)
	}
	if s.StallRatio.Lo > s.StallRatio.Point || s.StallRatio.Hi < s.StallRatio.Point {
		t.Fatal("stall CI does not bracket point")
	}
	if s.MeanDuration.Point <= 0 {
		t.Fatal("mean session duration not positive")
	}
	if s.MeanBitrate <= 0 {
		t.Fatal("mean bitrate not positive")
	}
}

func TestSlowPathFilterSelectsSlowStreams(t *testing.T) {
	cfg := Config{
		Env: DefaultEnv(), Schemes: []Scheme{bbaScheme()},
		Sessions: 150, Seed: 13,
	}
	sessions := make([]SessionResult, cfg.Sessions)
	var want []stats.StreamPoint
	for id := range sessions {
		sessions[id] = cfg.RunOne(id)
		for _, s := range sessions[id].Streams {
			if s.Eligible() && s.SlowPath() {
				want = append(want, stats.StreamPoint{Watch: s.WatchTime(), Stall: s.StallTime})
			}
		}
	}
	get := func(id int) *SessionResult { return &sessions[id] }
	all := FoldShards(cfg.Sessions, 16, get)
	// RunSharded applies the filter it is given.
	slow, err := cfg.RunSharded(16, 2, SlowPaths)
	if err != nil {
		t.Fatal(err)
	}
	got := slow.Schemes["BBA"].Points.Points
	if len(got) == 0 {
		t.Fatal("no slow-path streams sampled")
	}
	if len(got) >= len(all.Schemes["BBA"].Points.Points) {
		t.Fatal("slow filter did not reduce the set")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("slow filter kept %d streams, want exactly the %d eligible slow-path ones", len(got), len(want))
	}
	// Slow paths should have lower SSIM and more stalling, as in Fig. 8.
	stAll := all.Analyze(1)[0]
	stSlow := slow.Analyze(1)[0]
	if stSlow.SSIM.Point >= stAll.SSIM.Point {
		t.Fatalf("slow-path SSIM %v not below overall %v", stSlow.SSIM.Point, stAll.SSIM.Point)
	}
}

func TestConsortAccounting(t *testing.T) {
	cfg := Config{
		Env: DefaultEnv(), Schemes: []Scheme{bbaScheme(), mpcScheme()},
		Sessions: 100, Seed: 17,
	}
	acc, err := cfg.RunSharded(DefaultShardSize, 0, AllPaths)
	if err != nil {
		t.Fatal(err)
	}
	arms := acc.Analyze(0)
	if len(arms) != 2 {
		t.Fatalf("got %d arms", len(arms))
	}
	totalSessions := 0
	for _, a := range arms {
		totalSessions += a.Sessions
		if a.Streams < a.Sessions {
			t.Fatalf("%s: fewer streams than sessions", a.Name)
		}
		if a.Considered+a.NeverPlayed+a.ShortWatch+a.BadDecoder != a.Streams {
			t.Fatalf("%s: exclusions do not add up", a.Name)
		}
		// Channel zapping must generate a meaningful excluded fraction,
		// as in Figure A1 where ~60% of streams are excluded.
		if a.NeverPlayed+a.ShortWatch == 0 {
			t.Fatalf("%s: no browse-phase exclusions at all", a.Name)
		}
	}
	if totalSessions != 100 {
		t.Fatalf("sessions across arms = %d, want 100", totalSessions)
	}
}

// TestSessionDurations: an arm's Duration series holds one value per
// session, in session-id order across shards.
func TestSessionDurations(t *testing.T) {
	cfg := Config{Env: DefaultEnv(), Schemes: []Scheme{bbaScheme()}, Sessions: 40, Seed: 19}
	acc, err := cfg.RunSharded(8, 0, AllPaths)
	if err != nil {
		t.Fatal(err)
	}
	durs := acc.Schemes["BBA"].Duration.Values
	if len(durs) != 40 {
		t.Fatalf("got %d durations", len(durs))
	}
	for id, d := range durs {
		if d <= 0 || math.IsNaN(d) {
			t.Fatalf("bad duration %v", d)
		}
		if want := cfg.RunOne(id).Duration; d != want {
			t.Fatalf("duration %d = %v, want session %d's %v", id, d, id, want)
		}
	}
}

func TestCollectDataset(t *testing.T) {
	env := DefaultEnv()
	data, err := CollectDataset(env, []Scheme{bbaScheme()}, 40, 23, 3)
	if err != nil {
		t.Fatal(err)
	}
	if data.NumChunks() == 0 {
		t.Fatal("no chunks collected")
	}
	if data.MaxDay() != 3 {
		t.Fatalf("day stamp = %d, want 3", data.MaxDay())
	}
	for _, s := range data.Streams {
		for _, c := range s.Chunks {
			if c.Size <= 0 || c.TransTime <= 0 {
				t.Fatalf("invalid chunk obs: %+v", c)
			}
			if c.Info.DeliveryRate <= 0 {
				t.Fatal("missing tcp_info in collected telemetry")
			}
		}
	}
	// Deterministic collection.
	data2, err := CollectDataset(env, []Scheme{bbaScheme()}, 40, 23, 3)
	if err != nil {
		t.Fatal(err)
	}
	if data2.NumChunks() != data.NumChunks() {
		t.Fatalf("collection not deterministic: %d vs %d chunks", data2.NumChunks(), data.NumChunks())
	}
}

func TestFuguEndToEnd(t *testing.T) {
	// Integration: collect data with BBA, train a small TTP, run Fugu.
	if testing.Short() {
		t.Skip("end-to-end training skipped in -short")
	}
	env := DefaultEnv()
	data, err := CollectDataset(env, []Scheme{bbaScheme()}, 60, 29, 0)
	if err != nil {
		t.Fatal(err)
	}
	ttp := core.NewTTP(rand.New(rand.NewSource(31)), 3, []int{24, 24}, core.DefaultFeatures(), core.KindTransTime)
	tc := core.DefaultTrainConfig()
	tc.Epochs = 4
	if _, err := core.Train(ttp, data, tc); err != nil {
		t.Fatal(err)
	}
	fugu := Scheme{Name: "Fugu", New: func() abr.Algorithm { return core.NewFugu(ttp) }}
	trial := Config{Env: env, Schemes: []Scheme{fugu}, Sessions: 30, Seed: 37}
	acc, err := trial.RunSharded(DefaultShardSize, 0, AllPaths)
	if err != nil {
		t.Fatal(err)
	}
	st := acc.Analyze(1)
	if st[0].Considered == 0 {
		t.Fatal("Fugu produced no considered streams")
	}
	if st[0].SSIM.Point < 8 {
		t.Fatalf("Fugu mean SSIM %v implausibly low", st[0].SSIM.Point)
	}
}

func TestEmulationEnvUsesClipAndFCC(t *testing.T) {
	env := EmulationEnv()
	if env.Clip == nil {
		t.Fatal("emulation env should replay a clip")
	}
	if env.Paths.Name() != "fcc" {
		t.Fatalf("emulation paths = %s, want fcc", env.Paths.Name())
	}
	rng := rand.New(rand.NewSource(41))
	res := RunSessionHooked(&env, abr.NewBBA(), rng, 0, "BBA", 0, nil, nil)
	if len(res.Streams) == 0 {
		t.Fatal("no streams in emulation")
	}
}

func TestOutcomeEndsSession(t *testing.T) {
	if OutcomeFinished.endsSession() || OutcomeNeverPlayed.endsSession() {
		t.Fatal("finishing/zapping should not end the session")
	}
	if !OutcomeAbandonedStall.endsSession() || !OutcomeDrifted.endsSession() {
		t.Fatal("abandonment must end the session")
	}
}

// TestBootstrapSeedIndependentOfNameLength is the regression test for the
// bootstrap-seeding bug: the RNG seed used to derive from len(name), giving
// equal-length scheme names (e.g. "BBA" vs "MPC") identical bootstrap RNGs.
func TestBootstrapSeedIndependentOfNameLength(t *testing.T) {
	pairs := [][2]string{{"BBA", "MPC"}, {"MPC-HM", "Fugu-X"}, {"AAA", "AAB"}}
	for _, p := range pairs {
		if len(p[0]) != len(p[1]) {
			t.Fatalf("test pair %v must have equal lengths", p)
		}
		if nameSeed(p[0]) == nameSeed(p[1]) {
			t.Fatalf("equal-length names %q and %q share a bootstrap seed", p[0], p[1])
		}
	}
	if nameSeed("Fugu") != nameSeed("Fugu") {
		t.Fatal("nameSeed not deterministic")
	}
}

// TestAnalyzeEqualLengthSchemesBootstrapIndependently checks the observable
// symptom: two arms with byte-identical stream populations and equal-length
// names must not produce identical bootstrap intervals (they did before the
// fix, because their resampling RNGs were the same).
func TestAnalyzeEqualLengthSchemesBootstrapIndependently(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	acc := NewTrialAcc(AllPaths)
	for i := 0; i < 40; i++ {
		// One eligible stream per session with stream-correlated stalls so
		// resampling has variance to express.
		stream := telemetry.StreamSummary{
			PlayTime: 60 + rng.ExpFloat64()*200, StallTime: rng.ExpFloat64() * 3,
			Chunks: 30, SSIMMean: 14, MeanBitrate: 4e6, PathMeanRate: 8e6,
		}
		for _, name := range []string{"AAA", "BBB"} {
			acc.AddSession(&SessionResult{
				Scheme: name, Duration: 300,
				Streams: []telemetry.StreamSummary{stream},
			})
		}
	}
	st := acc.Analyze(7)
	if len(st) != 2 {
		t.Fatalf("got %d scheme rows", len(st))
	}
	if st[0].StallRatio.Point != st[1].StallRatio.Point {
		t.Fatalf("identical populations must share the point estimate: %v vs %v",
			st[0].StallRatio.Point, st[1].StallRatio.Point)
	}
	if st[0].StallRatio.Lo == st[1].StallRatio.Lo && st[0].StallRatio.Hi == st[1].StallRatio.Hi {
		t.Fatalf("equal-length arms drew identical bootstrap intervals %+v — shared RNG", st[0].StallRatio)
	}
}

// TestAnalyzeAggregatesByteIdenticalAcrossWorkers: the full analysis (every
// interval endpoint included) must not depend on scheduling.
func TestAnalyzeAggregatesByteIdenticalAcrossWorkers(t *testing.T) {
	cfg := Config{
		Env: DefaultEnv(), Schemes: []Scheme{bbaScheme(), mpcScheme()},
		Sessions: 60, Seed: 77,
	}
	serial, err := cfg.RunSharded(4, 1, AllPaths)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := cfg.RunSharded(4, 8, AllPaths)
	if err != nil {
		t.Fatal(err)
	}
	a := serial.Analyze(3)
	b := parallel.Analyze(3)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("aggregates differ between 1 and 8 workers:\n%+v\nvs\n%+v", a, b)
	}
}

// TestTrialAccMergeMatchesAnalyze: folding sessions through sharded
// accumulators and merging in shard order must reproduce the one-shard
// fold's analysis exactly.
func TestTrialAccMergeMatchesAnalyze(t *testing.T) {
	cfg := Config{
		Env: DefaultEnv(), Schemes: []Scheme{bbaScheme(), mpcScheme()},
		Sessions: 50, Seed: 99,
	}
	sessions := make([]SessionResult, cfg.Sessions)
	for id := range sessions {
		sessions[id] = cfg.RunOne(id)
	}
	get := func(id int) *SessionResult { return &sessions[id] }
	want := FoldShards(cfg.Sessions, cfg.Sessions, get).Analyze(5)
	got := FoldShards(cfg.Sessions, 16, get).Analyze(5)
	if len(got) != len(want) {
		t.Fatalf("scheme counts differ: %d vs %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		// The per-stream series survive concatenation exactly, so every
		// interval is byte-identical. The two running scalar sums (SSIMVar,
		// MeanBitrate) reassociate addition across shards and may differ in
		// the last ulps.
		if relDiff(g.SSIMVar, w.SSIMVar) > 1e-12 || relDiff(g.MeanBitrate, w.MeanBitrate) > 1e-12 {
			t.Fatalf("scheme %s scalar sums drifted: %+v vs %+v", g.Name, g, w)
		}
		g.SSIMVar, g.MeanBitrate = w.SSIMVar, w.MeanBitrate
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("sharded accumulation differs from the one-shard fold:\n%+v\nvs\n%+v", g, w)
		}
	}
}

// relDiff returns |a-b| relative to max(|a|,|b|), 0 when both are 0.
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m == 0 {
		return 0
	}
	return d / m
}

func TestMixSpreadsSeeds(t *testing.T) {
	seen := map[int64]bool{}
	for i := int64(0); i < 1000; i++ {
		v := Mix(1, i)
		if seen[v] {
			t.Fatalf("mix collision at %d", i)
		}
		seen[v] = true
		if v < 0 {
			t.Fatal("mix produced negative seed")
		}
	}
}

func TestStartupDelayPlausible(t *testing.T) {
	// Figure 9: startup delays are around half a second.
	cfg := Config{Env: DefaultEnv(), Schemes: []Scheme{bbaScheme()}, Sessions: 80, Seed: 43}
	acc, err := cfg.RunSharded(DefaultShardSize, 0, AllPaths)
	if err != nil {
		t.Fatal(err)
	}
	st := acc.Analyze(1)[0]
	if st.MeanStartup.Point < 0.05 || st.MeanStartup.Point > 5 {
		t.Fatalf("mean startup %v s implausible", st.MeanStartup.Point)
	}
}
