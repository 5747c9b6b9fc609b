package runner

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"puffer/internal/abr"
	"puffer/internal/core"
	"puffer/internal/experiment"
	"puffer/internal/obs"
)

// Run-loop metrics (write-only; see the obs package contract). Wall-clock
// only — never virtual time — and never checkpointed: DayStats carries the
// deterministic record, these carry the operational one.
var (
	dayWallNS      = obs.Default.Histogram("runner_day_wall_ns")
	retrainWallNS  = obs.Default.Histogram("runner_retrain_wall_ns")
	daysTotal      = obs.Default.Counter("runner_days_total")
	sessionsPerSec = obs.Default.Gauge("runner_sessions_per_sec")
)

// runTraceID names the per-day runner trace (day / trial / retrain spans).
// Session id -1 keeps the id space disjoint from decision traces, whose
// session ids are non-negative.
func runTraceID(day int) uint64 { return obs.DecisionTraceID(-1, uint64(day)) }

// Config describes a continual experiment. Field comments state units and
// the zero-value default uniformly, because cmd/puffer-daily's help text is
// generated from the same facts.
type Config struct {
	// Env is the world sessions run in. When Env.Paths implements
	// netem.DaySampler (e.g. a netem.DriftingSampler), each day's sessions
	// draw their network situations from that day's distribution — the
	// nonstationary deployment the staleness ablation needs. Default
	// (zero Env): experiment.DefaultEnv.
	Env experiment.Env
	// Days is how many deployment days to simulate. No default; must be
	// positive.
	Days int
	// SessionsPerDay is each day's randomized-trial size in sessions. No
	// default; must be positive.
	SessionsPerDay int
	// WindowDays is the sliding retraining window W in days: the nightly
	// phase trains on telemetry from the last W days. Default (0): all
	// days so far.
	WindowDays int
	// Workers bounds shard parallelism (worker goroutines). Default (0):
	// GOMAXPROCS. Results are identical for any worker count.
	Workers int
	// Engine executes each day's trial. Default (nil): the per-session
	// sharded worker pool (experiment.Config.RunSharded). Results are
	// byte-identical across engines; only scheduling and the serving-side
	// record differ.
	Engine DayEngine
	// ShardSize is how many sessions each worker-pool shard covers.
	// Default (0): experiment.DefaultShardSize. Results are independent of
	// ShardSize up to floating-point reassociation of two scalar means; fix
	// it for bit-reproducibility.
	ShardSize int
	// Seed makes the whole run deterministic. Default (0) is a valid seed.
	Seed int64
	// Retrain enables the nightly warm-start retraining. Default (false):
	// the model trained after day 0 stays frozen — the paper's "Fugu-Feb"
	// staleness ablation.
	Retrain bool
	// CheckpointDir persists per-day state for kill-and-resume. Default
	// (empty): no checkpointing.
	CheckpointDir string
	// Hidden are the TTP hidden-layer sizes. Default (nil):
	// core.DefaultHidden (64, 64).
	Hidden []int
	// Horizon is the TTP/MPC lookahead in chunks. Default (0):
	// core.DefaultHorizon (5).
	Horizon int
	// Train controls the nightly supervised training. Default (zero
	// value): core.DefaultTrainConfig; Train.Seed is re-derived per day
	// either way.
	Train core.TrainConfig
	// SpecHash, when set, is the scenario guard hash
	// (scenario.Spec.GuardHash) that pins this run's checkpoint
	// manifest: resuming with a different hash is rejected. Default
	// (empty): the runner derives a fallback guard from its own
	// result-shaping fields, for callers constructing Configs directly.
	SpecHash string
	// SpecJSON is the canonical scenario spec recorded alongside
	// SpecHash in the manifest, so a rejected resume can say exactly
	// which experiment the checkpoint belongs to. Diagnostics only.
	SpecJSON []byte
	// Logf, if set, receives progress lines. Default (nil): silent.
	Logf func(format string, args ...any)
	// Events, if set, receives the structured run-progress stream
	// (day_start/day_done with wall time and ETA, retrain_done). Strictly
	// wall-side: nothing the runner computes reads an event back, and a
	// nil log (the default) costs nothing. Default (nil): no events.
	Events *obs.EventLog
}

// DayEngine executes day `day`'s randomized trial — the loop's one seam:
// how a day's sessions run is the engine's business, what they compute is
// not, so every engine returns the accumulator and telemetry the
// per-session fold would, byte for byte. trial is Config.DayTrial for the
// day, its Recorder left nil for the engine to attach; model is the
// deployed TTP (nil on the bootstrap day), for engines that rebuild the
// trial in another process; shardSize and workers are Config.ShardSize and
// Config.Workers. The optional FleetDayStats becomes DayStats.Fleet, and
// notef prints engine progress lines beneath the day's summary line.
type DayEngine func(day int, trial *experiment.Config, model *core.TTP, shardSize, workers int,
	notef func(format string, args ...any)) (*experiment.TrialAcc, *core.Dataset, *FleetDayStats, error)

// sessionEngine is the default DayEngine: the per-session worker-pool fold.
func sessionEngine(_ int, trial *experiment.Config, _ *core.TTP, shardSize, workers int,
	_ func(string, ...any)) (*experiment.TrialAcc, *core.Dataset, *FleetDayStats, error) {
	col := experiment.NewDatasetCollector()
	trial.Recorder = col
	acc, err := trial.RunSharded(shardSize, workers, experiment.AllPaths)
	if err != nil {
		return nil, nil, nil, err
	}
	return acc, col.Dataset(), nil, nil
}

// DayStats is one day's record: the trial aggregate plus the nightly phase.
type DayStats struct {
	Day       int
	Retrained bool
	// Chunks is the telemetry volume collected that day.
	Chunks int
	// Loss and Examples report the nightly training (nil if none ran).
	Loss     []float64
	Examples []int
	// Schemes is the day's per-arm analysis.
	Schemes []experiment.SchemeStats
	// Fleet is the serving-side record when the day's engine returned one
	// (the fleet engine does; nil otherwise). Every field is deterministic,
	// so checkpointed days replay byte-identically; wall-clock throughput
	// is logged, never stored.
	Fleet *FleetDayStats
}

// FleetDayStats summarizes one day of fleet-engine serving: occupancy of
// the virtual-time multiplexer and the inference service's cross-session
// batching counters.
type FleetDayStats struct {
	// PeakConcurrent and MeanConcurrent describe simultaneous live
	// sessions over the day's virtual timeline of HorizonSeconds.
	PeakConcurrent int
	MeanConcurrent float64
	HorizonSeconds float64
	// Decisions counts ABR decisions; Deferred counts those whose
	// inference went through the batched service.
	Decisions int64
	Deferred  int64
	// Flushes, Batches, Rows, MaxBatchRows, and MeanBatchRows describe
	// the service's batch shape (rows are ladder rungs per horizon step).
	Flushes       int
	Batches       int
	Rows          int64
	MaxBatchRows  int
	MeanBatchRows float64
}

// Scheme returns the day's stats row for a named arm — how the per-day
// staleness deltas are read out of paired retrained/frozen runs.
func (d *DayStats) Scheme(name string) (experiment.SchemeStats, bool) {
	for _, s := range d.Schemes {
		if s.Name == name {
			return s, true
		}
	}
	return experiment.SchemeStats{}, false
}

// GapRow is one day of a paired staleness comparison: the named arm's
// stall ratio under daily retraining and under the frozen day-0 model, on
// runs sharing a seed (so sessions and paths are identical and the gap
// isolates the models' decisions).
type GapRow struct {
	Day int
	// Retrained and Frozen are stall ratios (fractions, not percent).
	Retrained, Frozen float64
	// Gap is Frozen - Retrained.
	Gap float64
	// Present is false on days the arm did not run (e.g. the bootstrap
	// day, which deploys no Fugu).
	Present bool
}

// StalenessGaps aligns two seed-paired runs day by day for the named arm.
// Both the puffer-daily ablation table and figures.FigDrift are built on
// it.
func StalenessGaps(retrained, frozen *Result, scheme string) []GapRow {
	days := len(retrained.Days)
	if len(frozen.Days) < days {
		days = len(frozen.Days)
	}
	rows := make([]GapRow, 0, days)
	for d := 0; d < days; d++ {
		row := GapRow{Day: d}
		a, okA := retrained.Days[d].Scheme(scheme)
		b, okB := frozen.Days[d].Scheme(scheme)
		if okA && okB {
			row.Present = true
			row.Retrained = a.StallRatio.Point
			row.Frozen = b.StallRatio.Point
			row.Gap = b.StallRatio.Point - a.StallRatio.Point
		}
		rows = append(rows, row)
	}
	return rows
}

// Result is a finished (or resumed-and-finished) continual experiment.
type Result struct {
	Days []DayStats
	// Total pools every day's streams per scheme: the merged accumulators
	// analyzed once.
	Total []experiment.SchemeStats
	// TTP is the model after the final nightly phase.
	TTP *core.TTP
	// Data is the sliding-window telemetry at exit (the last WindowDays
	// days merged in day order) — what the next nightly phase would train
	// on, and what the figures suite evaluates predictors against.
	Data *core.Dataset
}

// ModelSlot atomically publishes the TTP the Fugu arm serves. The nightly
// phase stores the retrained model; session factories load it at session
// creation, so a rotation never tears an in-flight stream.
type ModelSlot struct {
	p atomic.Pointer[core.TTP]
}

// Load returns the current model (nil before the first nightly phase).
func (s *ModelSlot) Load() *core.TTP { return s.p.Load() }

// Store rotates a new model in.
func (s *ModelSlot) Store(t *core.TTP) { s.p.Store(t) }

// BootstrapSchemes is the day-0 data-collection mixture: the classical
// schemes Puffer ran from day one, with light exploration for off-policy
// coverage of the (state, chunk size) space.
func BootstrapSchemes(seed int64) []experiment.Scheme {
	return []experiment.Scheme{
		{Name: "BBA", New: func() abr.Algorithm { return abr.NewExplorer(abr.NewBBA(), 0.15, seed) }},
		{Name: "MPC-HM", New: func() abr.Algorithm { return abr.NewExplorer(abr.NewMPCHM(), 0.10, seed+1) }},
		{Name: "RobustMPC-HM", New: func() abr.Algorithm { return abr.NewRobustMPCHM() }},
	}
}

// DeploySchemes is the steady-state mixture once a model exists: Fugu (with
// a little exploration, so retraining keeps seeing outcomes for sizes the
// policy would not pick) alongside BBA.
func DeploySchemes(slot *ModelSlot, seed int64) []experiment.Scheme {
	return []experiment.Scheme{
		{Name: "Fugu", New: func() abr.Algorithm { return abr.NewExplorer(core.NewFugu(slot.Load()), 0.05, seed+2) }},
		{Name: "BBA", New: func() abr.Algorithm { return abr.NewBBA() }},
	}
}

// dayData is one day of the sliding window.
type dayData struct {
	day  int
	data *core.Dataset
}

// state is one run in progress.
type state struct {
	cfg    Config
	slot   ModelSlot
	window []dayData
	pooled *experiment.TrialAcc
	res    *Result
}

// Run executes (or resumes) the continual experiment.
func Run(cfg Config) (*Result, error) {
	gobTypeWarmup()
	if cfg.Days <= 0 {
		return nil, fmt.Errorf("runner: Days = %d, must be positive", cfg.Days)
	}
	if cfg.SessionsPerDay <= 0 {
		return nil, fmt.Errorf("runner: SessionsPerDay = %d, must be positive", cfg.SessionsPerDay)
	}
	if cfg.Env.Paths == nil {
		cfg.Env = experiment.DefaultEnv()
	}
	if cfg.ShardSize <= 0 {
		cfg.ShardSize = experiment.DefaultShardSize
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = core.DefaultHorizon
	}
	if (cfg.Train == core.TrainConfig{}) {
		cfg.Train = core.DefaultTrainConfig()
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.Engine == nil {
		cfg.Engine = sessionEngine
	}

	r := &state{
		cfg:    cfg,
		pooled: experiment.NewTrialAcc(experiment.AllPaths),
		res:    &Result{},
	}
	start := 0
	if cfg.CheckpointDir != "" {
		var err error
		start, err = r.resume()
		if err != nil {
			return nil, err
		}
		if start > 0 {
			cfg.Logf("resumed at day %d (%d days checkpointed)", start, start)
		}
	}

	var wallSumNS int64
	for day := start; day < cfg.Days; day++ {
		cfg.Events.Emit("day_start", map[string]any{
			"day": day, "sessions": cfg.SessionsPerDay, "days_total": cfg.Days,
		})
		t0 := obs.Now()
		ds, acc, data, err := r.liveDay(day)
		if err != nil {
			return nil, err
		}
		if cfg.CheckpointDir != "" {
			if err := r.checkpointDay(ds, acc, data); err != nil {
				return nil, err
			}
		}
		r.finishDay(ds, acc, data)
		wall := obs.SinceNS(t0)
		dayWallNS.Observe(wall)
		daysTotal.Inc()
		if tr := obs.Tracing(); tr != nil {
			tr.Record(obs.Span{Trace: runTraceID(day), ID: tr.NewSpanID(),
				Name: "day", Start: t0, Dur: wall, Attrs: []obs.Attr{
					{Key: "day", Val: int64(day)},
					{Key: "sessions", Val: int64(cfg.SessionsPerDay)},
					{Key: "chunks", Val: int64(ds.Chunks)},
				}})
		}
		done := day - start + 1
		fields := map[string]any{
			"day": day, "chunks": ds.Chunks, "days_done": day + 1, "days_total": cfg.Days,
		}
		if wall > 0 {
			wallSumNS += wall
			fields["wall_s"] = float64(wall) / 1e9
			fields["eta_s"] = float64(wallSumNS) / float64(done) * float64(cfg.Days-day-1) / 1e9
			sessionsPerSec.Set(float64(cfg.SessionsPerDay) / (float64(wall) / 1e9))
		}
		cfg.Events.Emit("day_done", fields)
	}

	r.res.Total = r.pooled.Analyze(totalAnalysisSeed(cfg.Seed))
	r.res.TTP = r.slot.Load()
	r.res.Data = mergeWindow(r.window)
	return r.res, nil
}

// DayTrial builds day `day`'s randomized trial exactly as the daily loop
// runs it: the day's scheme mixture (bootstrap until the slot holds a
// model, deployment after) over the config's world, with the day-derived
// seed. The Recorder is left nil for the engine to attach. Exported so
// external execution engines — the wall-clock serving layer, the dist
// worker — reproduce the coordinator's trial byte for byte.
func (cfg *Config) DayTrial(day int, slot *ModelSlot) experiment.Config {
	env := cfg.Env
	if env.Paths == nil {
		env = experiment.DefaultEnv()
	}
	schemes := DeploySchemes(slot, daySeed(cfg.Seed, day))
	if slot.Load() == nil {
		schemes = BootstrapSchemes(daySeed(cfg.Seed, day))
	}
	return experiment.Config{
		Env:      env,
		Schemes:  schemes,
		Sessions: cfg.SessionsPerDay,
		Seed:     daySeed(cfg.Seed, day),
		Day:      day,
	}
}

// liveDay simulates day `day` and runs its nightly phase.
func (r *state) liveDay(day int) (DayStats, *experiment.TrialAcc, *core.Dataset, error) {
	cfg := r.cfg
	tTrial := obs.Now()
	trial := cfg.DayTrial(day, &r.slot)
	var notes []string
	acc, data, serving, err := cfg.Engine(day, &trial, r.slot.Load(), cfg.ShardSize, cfg.Workers,
		func(format string, args ...any) { notes = append(notes, fmt.Sprintf(format, args...)) })
	if err != nil {
		return DayStats{}, nil, nil, err
	}
	if tr := obs.Tracing(); tr != nil {
		tr.Record(obs.Span{Trace: runTraceID(day), ID: tr.NewSpanID(),
			Name: "trial", Start: tTrial, Dur: obs.SinceNS(tTrial),
			Attrs: []obs.Attr{{Key: "day", Val: int64(day)}}})
	}
	ds := DayStats{
		Day:     day,
		Chunks:  data.NumChunks(),
		Schemes: acc.Analyze(dayAnalysisSeed(cfg.Seed, day)),
		Fleet:   serving,
	}
	cfg.Logf("day %d: %d sessions, %d chunks of telemetry", day, cfg.SessionsPerDay, ds.Chunks)
	for _, note := range notes {
		cfg.Logf("%s", note)
	}

	// Nightly phase: bootstrap-train on day 0, warm-start-retrain when
	// continual retraining is on; the frozen ablation keeps serving the
	// day-0 model.
	if r.slot.Load() == nil || cfg.Retrain {
		t0 := obs.Now()
		tr, model, err := r.nightlyTrain(day, data)
		if err != nil {
			return DayStats{}, nil, nil, err
		}
		retrainWallNS.ObserveSince(t0)
		if trc := obs.Tracing(); trc != nil {
			trc.Record(obs.Span{Trace: runTraceID(day), ID: trc.NewSpanID(),
				Name: "retrain", Start: t0, Dur: obs.SinceNS(t0),
				Attrs: []obs.Attr{
					{Key: "day", Val: int64(day)},
					{Key: "examples", Val: int64(tr.Examples[0])},
				}})
		}
		ds.Retrained = true
		ds.Loss, ds.Examples = tr.Loss, tr.Examples
		r.slot.Store(model)
		cfg.Logf("  nightly retrain: %d examples (step 0), final loss %.3f nats", tr.Examples[0], tr.Loss[0])
		cfg.Events.Emit("retrain_done", map[string]any{
			"day": day, "examples": tr.Examples[0], "loss": tr.Loss[0],
		})
	}
	return ds, acc, data, nil
}

// finishDay folds a completed day into the run's rolling state.
func (r *state) finishDay(ds DayStats, acc *experiment.TrialAcc, data *core.Dataset) {
	r.res.Days = append(r.res.Days, ds)
	r.pooled.Merge(acc)
	r.window = trimWindow(append(r.window, dayData{day: ds.Day, data: data}), ds.Day, r.cfg.WindowDays)
}

// trimWindow drops telemetry older than the sliding window of `windowDays`
// ending at `day` (0 = keep everything).
func trimWindow(win []dayData, day, windowDays int) []dayData {
	if windowDays <= 0 {
		return win
	}
	keepFrom := day - windowDays + 1
	for len(win) > 0 && win[0].day < keepFrom {
		win = win[1:]
	}
	return win
}

// mergeWindow merges a window in day order. The merged dataset is what the
// nightly phase trains on; day stamps survive so the training config's
// recency weighting sees true ages.
func mergeWindow(win []dayData) *core.Dataset {
	d := &core.Dataset{}
	for _, w := range win {
		d.Streams = append(d.Streams, w.data.Streams...)
	}
	return d
}

// nightlyTrain trains the next day's model on the sliding window including
// today: warm-started from the current model, or cold on day 0. The rolling
// window itself is updated later (finishDay, after checkpointing), so
// today's telemetry joins a local copy here.
func (r *state) nightlyTrain(day int, today *core.Dataset) (core.TrainResult, *core.TTP, error) {
	win := append(append([]dayData{}, r.window...), dayData{day: day, data: today})
	data := mergeWindow(trimWindow(win, day, r.cfg.WindowDays))

	var model *core.TTP
	if cur := r.slot.Load(); cur != nil {
		model = cur.Clone()
	} else {
		rng := rand.New(rand.NewSource(mix2(r.cfg.Seed, -1)))
		model = core.NewTTP(rng, r.cfg.Horizon, r.cfg.Hidden, core.DefaultFeatures(), core.KindTransTime)
	}
	tc := r.cfg.Train
	tc.Seed = trainSeed(r.cfg.Seed, day)
	tr, err := core.Train(model, data, tc)
	if err != nil {
		return tr, nil, fmt.Errorf("runner: nightly training after day %d: %w", day, err)
	}
	return tr, model, nil
}

// Seed derivations: every per-day RNG gets independent seed material via the
// splitmix64 finalizer, mirroring the experiment package's mix.
func mix2(seed, id int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(id) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & 0x7FFFFFFFFFFFFFFF)
}

func daySeed(seed int64, day int) int64         { return mix2(seed, int64(3*day+1)) }
func trainSeed(seed int64, day int) int64       { return mix2(seed, int64(3*day+2)) }
func dayAnalysisSeed(seed int64, day int) int64 { return mix2(seed, int64(3*day+3)) }
func totalAnalysisSeed(seed int64) int64        { return mix2(seed, -2) }

// DaySeed is the trial seed of day `day` of a run with this config seed —
// exported so an external execution engine (the wall-clock serving layer)
// can reproduce exactly the randomized trial the daily loop would run.
func DaySeed(seed int64, day int) int64 { return daySeed(seed, day) }

// DayAnalysisSeed is the bootstrap seed of day `day`'s per-arm analysis,
// exported for the same reason as DaySeed: analyzing an externally-executed
// trial with this seed reproduces the daily loop's stats byte for byte.
func DayAnalysisSeed(seed int64, day int) int64 { return dayAnalysisSeed(seed, day) }
