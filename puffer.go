// Package puffer is the public API of this reproduction of "Learning in
// situ: a randomized experiment in video streaming" (Yan et al., NSDI 2020):
// the Puffer randomized-trial platform and the Fugu ABR algorithm, rebuilt
// in pure Go on a simulated substrate (network paths, a fluid TCP sender,
// a VBR encoding ladder, and a viewer-behavior model).
//
// The quickest way in is to assemble the pieces yourself: gather telemetry
// with CollectDataset, fit a TTP with TrainTTP, wrap it in NewFugu, and race
// it against the classical schemes with RunExperiment, whose TrialAcc's
// Analyze gives the results table with bootstrap CIs. See examples/ for
// full programs; cmd/figures regenerates the paper's tables and figures.
//
// The MPC hot path is batched end to end: the TTP fills the distributions
// for every candidate quality of a horizon step in one call (one
// matrix-matrix pass per network layer over the whole ladder), and the
// controller plans with an iterative, factored value iteration.
//
// The platform's front door is the scenario API: every experiment — the
// continual daily loop included — is one declarative, serializable
// ScenarioSpec (environment, daily-loop shape, drift, engine, seed), built
// with NewScenario options and executed with RunScenario, which also runs
// the frozen-model staleness companion when the spec's ablation is on
// (StalenessGaps reads the per-day gap). The spec's content hash guards
// checkpoint directories against resuming a different experiment.
// cmd/puffer-daily is the CLI over the same call (named scenarios, spec
// files, checkpoints), and cmd/puffer-sweep runs grids of specs against an
// append-only results index. Wrap an Env's path sampler in a
// DriftingSampler (see DriftPreset) to make a hand-built deployment
// nonstationary — the regime where the paper's daily retraining visibly
// beats a frozen model instead of tying it.
//
// Days can also run on the fleet engine (a spec with engine.kind "fleet",
// ScenarioEngine): a discrete-event, virtual-time multiplexer that
// serves hundreds of interleaved sessions at once — Poisson arrivals,
// scheme randomization at arrival, and a central InferenceService that runs
// each horizon net's forward pass as one cross-session batch over packed
// SIMD model snapshots. Results are byte-identical to the per-session
// engine at the same seeds; only scheduling and the occupancy record
// differ. See ARCHITECTURE.md for the system view.
package puffer

import (
	"math/rand"

	"puffer/internal/abr"
	"puffer/internal/core"
	"puffer/internal/experiment"
	"puffer/internal/netem"
	"puffer/internal/runner"
	"puffer/internal/scenario"
)

// Re-exported types: the experiment harness.
type (
	// Env is the world sessions run in (paths, channels, viewers).
	Env = experiment.Env
	// Scheme names an ABR algorithm factory for a trial arm.
	Scheme = experiment.Scheme
	// Config describes a randomized controlled trial.
	Config = experiment.Config
	// SchemeStats is one row of a results table (Figure 1/8 style), with
	// the arm's CONSORT counters (Figure A1).
	SchemeStats = experiment.SchemeStats
	// Algorithm is the ABR decision interface.
	Algorithm = abr.Algorithm
	// TTP is Fugu's Transmission Time Predictor.
	TTP = core.TTP
	// Dataset is TTP training telemetry.
	Dataset = core.Dataset
	// TrainConfig controls TTP training.
	TrainConfig = core.TrainConfig
	// DailyResult is a finished continual experiment (one arm of a
	// ScenarioOutcome).
	DailyResult = runner.Result
	// GapRow is one day of a paired retrained-vs-frozen staleness
	// comparison (see StalenessGaps).
	GapRow = runner.GapRow
	// TrialAcc is a finished trial: the mergeable per-arm accumulator
	// behind sharded aggregation (fold sessions in, merge shards, analyze
	// once). TrialAcc.Analyze yields the SchemeStats rows.
	TrialAcc = experiment.TrialAcc
	// DaySampler is a day-indexed path sampler: the daily loop passes each
	// experiment day to Env.Paths, so a day-aware family draws that day's
	// sessions from that day's distribution.
	DaySampler = netem.DaySampler
	// DriftSchedule describes how a path population evolves over days
	// (capacity decay, slow-share growth, outage ramps, family mixes).
	DriftSchedule = netem.DriftSchedule
	// DriftingSampler wraps any path sampler with a DriftSchedule, making
	// the simulated deployment nonstationary.
	DriftingSampler = netem.DriftingSampler
	// ScenarioSpec is the single declarative description of an
	// experiment: environment, daily-loop shape, model/training knobs,
	// drift schedule, engine, seed, sharding — serializable as strict
	// JSON, defaulted in one place, and content-hashed (the hash guards
	// checkpoint manifests). See RunScenario.
	ScenarioSpec = scenario.Spec
	// ScenarioOption is a functional option for NewScenario.
	ScenarioOption = scenario.Option
	// ScenarioRunOptions are the scheduling-side knobs of RunScenario
	// (workers, checkpoint dir, logging); they never change results.
	ScenarioRunOptions = scenario.RunOptions
	// ScenarioOutcome is a finished scenario run: the fully-defaulted
	// spec, the main result, and the frozen-model companion when the
	// spec's ablation ran.
	ScenarioOutcome = scenario.Outcome
)

// DefaultEnv returns the deployment-like environment (heavy-tailed paths,
// six live channels, the default viewer model).
func DefaultEnv() Env { return experiment.DefaultEnv() }

// EmulationEnv returns the §5.2 emulation testbed (FCC-like paths behind a
// fixed 40 ms shell, replaying a 10-minute clip).
func EmulationEnv() Env { return experiment.EmulationEnv() }

// RunExperiment executes a randomized controlled trial on every core and
// returns its merged accumulator; call Analyze on it for per-scheme
// statistics with bootstrap confidence intervals and CONSORT counters.
func RunExperiment(cfg Config) (*TrialAcc, error) {
	return cfg.RunSharded(experiment.DefaultShardSize, 0, experiment.AllPaths)
}

// CollectDataset gathers TTP training telemetry by running the given
// behavior schemes in env — "in situ" when env is the deployment
// environment.
func CollectDataset(env Env, schemes []Scheme, sessions int, seed int64, day int) (*Dataset, error) {
	return experiment.CollectDataset(env, schemes, sessions, seed, day)
}

// NewTTP constructs an untrained Transmission Time Predictor with the
// paper's architecture (per-step 22-64-64-21 networks over a 5-chunk
// horizon).
func NewTTP(seed int64) *TTP {
	return core.NewTTP(rand.New(rand.NewSource(seed)), core.DefaultHorizon, nil,
		core.DefaultFeatures(), core.KindTransTime)
}

// DefaultTrainConfig returns the paper's TTP training setup (14-day window,
// recency weighting).
func DefaultTrainConfig() TrainConfig { return core.DefaultTrainConfig() }

// TrainTTP fits a TTP on telemetry with supervised learning.
func TrainTTP(t *TTP, data *Dataset, cfg TrainConfig) error {
	_, err := core.Train(t, data, cfg)
	return err
}

// NewFugu wraps a trained TTP in the stochastic MPC controller — the
// deployed Fugu scheme.
func NewFugu(t *TTP) Algorithm { return core.NewFugu(t) }

// NewBBA returns buffer-based control, the "simple" scheme.
func NewBBA() Algorithm { return abr.NewBBA() }

// WithExploration wraps a scheme with epsilon-uniform rung exploration,
// used when collecting TTP training data so the predictor sees outcomes
// for chunk sizes the behavior policy would never pick on its own.
func WithExploration(alg Algorithm, epsilon float64, seed int64) Algorithm {
	return abr.NewExplorer(alg, epsilon, seed)
}

// NewMPCHM returns MPC with the harmonic-mean throughput predictor.
func NewMPCHM() Algorithm { return abr.NewMPCHM() }

// NewRobustMPCHM returns RobustMPC with the harmonic-mean predictor.
func NewRobustMPCHM() Algorithm { return abr.NewRobustMPCHM() }

// ---------------------------------------------------------------------------
// The front door: running experiments, from least to most declarative.
//
//   - RunExperiment (above): one randomized trial from an explicit Config,
//     returned as its merged TrialAcc (Analyze it for the results table).
//   - RunScenario: one declarative, serializable, content-hashed spec —
//     the continual daily loop, as the CLI, the nightly workflow, and the
//     figures run it.
//
// Prefer the most declarative layer that can express the experiment: specs
// hash, checkpoint, dedup, and serialize for free.
// ---------------------------------------------------------------------------

// DriftPreset returns a named nonstationarity schedule ("none", "decay",
// "shift", or "mix") for use with DriftingSampler.
func DriftPreset(name string) (DriftSchedule, error) { return netem.DriftPreset(name) }

// StalenessGaps aligns two seed-paired daily-loop results (a
// ScenarioOutcome's Result and Frozen) day by day for the named arm,
// yielding the per-day frozen-vs-retrained stall gap.
func StalenessGaps(retrained, frozen *DailyResult, scheme string) []GapRow {
	return runner.StalenessGaps(retrained, frozen, scheme)
}

// NewScenario builds a ScenarioSpec from functional options; anything not
// set resolves to the platform defaults. The option constructors below
// mirror the spec's JSON fields.
func NewScenario(opts ...ScenarioOption) ScenarioSpec { return scenario.New(opts...) }

// Scenario spec options (see internal/scenario for the full set and the
// corresponding JSON fields).
var (
	ScenarioWorld       = scenario.World
	ScenarioDays        = scenario.Days
	ScenarioSessions    = scenario.Sessions
	ScenarioWindow      = scenario.Window
	ScenarioAblation    = scenario.Ablation
	ScenarioSeed        = scenario.Seed
	ScenarioEpochs      = scenario.Epochs
	ScenarioDriftPreset = scenario.Drift
)

// RunScenario compiles and executes a scenario spec — the platform's one
// front door, shared with cmd/puffer-daily and the nightly workflow: the
// main run, plus the frozen-model staleness companion on the same seed
// when the spec enables its ablation.
func RunScenario(spec ScenarioSpec, opt ScenarioRunOptions) (*ScenarioOutcome, error) {
	return scenario.Run(spec, opt)
}
