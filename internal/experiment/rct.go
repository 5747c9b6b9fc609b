package experiment

import (
	"hash/fnv"
	"math/rand"

	"puffer/internal/abr"
	"puffer/internal/stats"
)

// Scheme pairs a name with a factory producing fresh per-session algorithm
// instances (algorithms are stateful and not concurrency-safe).
type Scheme struct {
	Name string
	New  func() abr.Algorithm
}

// Config describes one randomized controlled trial.
type Config struct {
	Env     Env
	Schemes []Scheme
	// Sessions is the total number of sessions randomized across schemes.
	Sessions int
	Seed     int64
	// Day stamps collected telemetry (for training windows).
	Day int
	// Recorder, if set, observes every sent chunk. Must be safe for
	// concurrent use.
	Recorder Recorder
}

// RunOne simulates session `id` of the trial: the session's own
// deterministic RNG makes the blinded arm assignment as its first draw, then
// drives the simulation. Results depend only on (Config, id), so callers may
// run ids in any order or partition — RunSharded and the other engines fold
// sessions into per-shard accumulators and never keep a whole day.
func (cfg *Config) RunOne(id int) SessionResult {
	return cfg.RunOneHooked(id, nil)
}

// RunOneHooked is RunOne with the session's decisions routed through hook
// (and the freshly built algorithm exposed to it); the fleet engine parks
// sessions there. A nil hook is exactly RunOne.
func (cfg *Config) RunOneHooked(id int, hook DecideHook) SessionResult {
	rng := rand.New(rand.NewSource(mix(cfg.Seed, int64(id))))
	arm := rng.Intn(len(cfg.Schemes))
	scheme := cfg.Schemes[arm]
	alg := scheme.New()
	env := cfg.Env
	return RunSessionHooked(&env, alg, rng, id, scheme.Name, cfg.Day, cfg.Recorder, hook)
}

// SessionSeed is the RNG seed of session `id` in a trial with this seed.
// Exported so external drivers (the wall-clock load generator) can
// reproduce a session's blinded arm assignment — the first Intn draw of
// rand.New(rand.NewSource(SessionSeed(seed, id))) — without running it.
func SessionSeed(seed, id int64) int64 { return mix(seed, id) }

// mix hashes (seed, id) into an independent RNG seed (splitmix64 finalizer).
func mix(seed, id int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(id) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & 0x7FFFFFFFFFFFFFFF)
}

// nameSeed hashes a scheme name into RNG-seed material. Analysis code mixes
// this with the caller's seed so every scheme gets an independent bootstrap
// RNG; hashing the content (FNV-1a) rather than anything as coarse as the
// name's length keeps equal-length names (e.g. "BBA" vs "MPC") independent.
func nameSeed(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64() & 0x7FFFFFFFFFFFFFFF)
}

// SchemeStats is one row of the paper's Figure 1 / Figure 8 analysis.
type SchemeStats struct {
	Name string

	Sessions    int
	Streams     int
	NeverPlayed int
	ShortWatch  int
	BadDecoder  int
	Considered  int

	WatchYears float64

	// StallRatio is total-stall/total-watch with a bootstrap 95% CI.
	StallRatio stats.Interval
	// SSIM is the duration-weighted mean SSIM (dB) with its 95% CI.
	SSIM stats.Interval
	// SSIMVar is the mean within-stream chunk-to-chunk |dSSIM| (dB).
	SSIMVar float64
	// MeanBitrate is the mean delivered video bitrate (bits/s).
	MeanBitrate float64
	// MeanStartup and MeanFirstSSIM summarize cold start (Figure 9).
	MeanStartup   stats.Interval
	MeanFirstSSIM stats.Interval
	// MeanDuration is the mean session time-on-site in seconds with CI
	// (Figure 10).
	MeanDuration stats.Interval
}

// AnalysisFilter selects which eligible streams enter the analysis.
type AnalysisFilter int

const (
	// AllPaths includes every eligible stream.
	AllPaths AnalysisFilter = iota
	// SlowPaths keeps streams on paths with mean delivery rate under
	// 6 Mbit/s, the Figure 8 right-hand panel.
	SlowPaths
)
