package scenario

import (
	"path/filepath"
	"time"

	"puffer/internal/core"
	"puffer/internal/dist"
	"puffer/internal/experiment"
	"puffer/internal/fleet"
	"puffer/internal/netem"
	"puffer/internal/obs"
	"puffer/internal/runner"
)

// RunOptions are the scheduling-side knobs of a scenario run — everything
// here changes how (or where) the experiment executes, never what it
// computes, so none of it lives in the Spec or its hashes.
type RunOptions struct {
	// Workers bounds shard parallelism (0 = GOMAXPROCS).
	Workers int
	// CheckpointDir persists per-day state for kill-and-resume. The
	// retrained run and the frozen ablation companion checkpoint side by
	// side in <dir>/retrain and <dir>/frozen-<companion guard hash>.
	CheckpointDir string
	// DistCommand is the worker argv the dist engine launches (usually
	// the calling binary's own worker mode). Required when the spec
	// selects engine.kind "dist"; ignored otherwise.
	DistCommand []string
	// DistShardTimeout is the dist engine's per-shard hang deadline
	// (0 = none). Ignored by the other engines.
	DistShardTimeout time.Duration
	// Logf, if set, receives progress lines.
	Logf func(format string, args ...any)
	// Events, if set, receives the structured run-progress stream: the
	// scenario lifecycle plus the runner's per-day events, for both the
	// main arm and the frozen ablation companion. Wall-side only — events
	// never feed back into what the scenario computes.
	Events *obs.EventLog
}

// Outcome is a finished scenario run.
type Outcome struct {
	// Spec is the fully-defaulted spec that ran — what -dump-scenario
	// prints, and what the checkpoint manifest recorded.
	Spec Spec
	// Schedule is the effective drift schedule (zero when stationary),
	// for per-day Describe readouts.
	Schedule netem.DriftSchedule
	// Result is the spec's run.
	Result *runner.Result
	// Frozen is the staleness-ablation companion — the same experiment
	// with nightly retraining disabled, on the same seed — when the spec
	// asked for it (daily.retrain and daily.ablation both true).
	Frozen *runner.Result
}

// Run compiles and executes the scenario: the main run, and (when the spec
// enables the ablation) the frozen-model companion on the same seed, whose
// per-day gap against the retrained arm is the paper's §4.6 staleness
// readout. This is the platform's one front door — the CLI, the nightly
// workflow, and library callers all run experiments through it.
func Run(s Spec, opt RunOptions) (*Outcome, error) {
	d := s.WithDefaults()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	sched, err := d.Schedule()
	if err != nil {
		return nil, err
	}
	engine, reap, err := d.dayEngine(opt)
	if err != nil {
		return nil, err
	}
	defer reap()
	// arm runs one compiled spec — the main run or its companion — on the
	// run's engine and scheduling options.
	arm := func(spec Spec, checkpointDir string) (*runner.Result, error) {
		cfg, err := Compile(spec)
		if err != nil {
			return nil, err
		}
		cfg.Engine = engine
		cfg.Workers = opt.Workers
		cfg.Logf = opt.Logf
		cfg.Events = opt.Events
		cfg.CheckpointDir = checkpointDir
		return runner.Run(cfg)
	}

	opt.Events.Emit("scenario_start", map[string]any{
		"name": d.Name, "hash": d.Hash(), "days": d.Daily.Days, "sessions": d.Daily.Sessions,
	})
	out := &Outcome{Spec: d, Schedule: sched}
	if out.Result, err = arm(d, checkpointFor(opt.CheckpointDir, *d.Daily.Retrain)); err != nil {
		return nil, err
	}

	if *d.Daily.Retrain && *d.Daily.Ablation {
		if opt.Logf != nil {
			opt.Logf("running frozen-model ablation (same seed, no nightly retraining)...")
		}
		opt.Events.Emit("ablation_start", map[string]any{"name": d.Name, "hash": d.Hash()})
		frozen := d
		frozen.Daily.Retrain = ptr(false)
		if out.Frozen, err = arm(frozen, frozenCheckpointDir(opt.CheckpointDir, frozen)); err != nil {
			return nil, err
		}
	}
	opt.Events.Emit("scenario_done", map[string]any{"name": d.Name, "hash": d.Hash()})
	return out, nil
}

// dayEngine lowers engine.kind (already validated) into the daily loop's
// one seam — the only place the kind string selects code. The session
// engine is the runner's zero value; the dist engine holds worker
// processes for the whole run, main arm and companion alike (both broadcast
// the same trials: retraining is not part of a day's trial), and reap
// releases them — call it on every return path.
func (s Spec) dayEngine(opt RunOptions) (engine runner.DayEngine, reap func(), err error) {
	switch s.Engine.Kind {
	case "fleet":
		return fleet.DayEngine(s.Arrivals(), s.Engine.Tick), func() {}, nil
	case "dist":
		pool, err := dist.NewPool(dist.PoolConfig{
			Workers:      s.Engine.DistWorkers,
			Command:      opt.DistCommand,
			Spec:         s.CanonicalJSON(),
			ShardTimeout: opt.DistShardTimeout,
			Logf:         opt.Logf,
			Events:       opt.Events,
		})
		if err != nil {
			return nil, nil, err
		}
		// Workers build the same DayTrial from the broadcast (spec, day,
		// model); the pool merges their shard blobs in shard order.
		return func(day int, trial *experiment.Config, model *core.TTP, shardSize, _ int,
			_ func(string, ...any)) (*experiment.TrialAcc, *core.Dataset, *runner.FleetDayStats, error) {
			acc, data, err := pool.RunDay(day, model, trial.Sessions, shardSize)
			return acc, data, nil, err
		}, pool.Close, nil
	}
	return nil, func() {}, nil
}

// checkpointFor keeps the historical layout: the main run owns a
// subdirectory of the caller's root named for its retrain mode.
func checkpointFor(root string, retrain bool) string {
	if root == "" {
		return ""
	}
	if retrain {
		return filepath.Join(root, "retrain")
	}
	return filepath.Join(root, "frozen")
}

// frozenCheckpointDir names the ablation companion's checkpoint directory
// by the companion's own GuardHash. A plain "frozen" sibling would alias
// companions of different specs sharing one root (the manifest guard then
// rejects the second companion as a corrupt resume instead of running it);
// deriving the name from the companion's guard keeps each lineage its own
// directory.
func frozenCheckpointDir(root string, companion Spec) string {
	if root == "" {
		return ""
	}
	return filepath.Join(root, "frozen-"+companion.GuardHash()[:12])
}
