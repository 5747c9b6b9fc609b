package serve

import (
	"fmt"

	"puffer/internal/experiment"
	"puffer/internal/fleet"
	"puffer/internal/runner"
	"puffer/internal/scenario"
)

// Plan pins one day of one scenario as a servable trial: the environment,
// seeds, scheme names, and arrival schedule that both ends of the wire —
// and the deterministic virtual-time twin — must agree on. NewPlan builds
// the cheap client-side view (no models); Warm trains the serving model by
// replaying the scenario's daily loop up to the chosen day and attaches
// the scheme factories, which is what the daemon and the twin need.
//
// Hash is the plan's identity: the spec's content hash plus the day. The
// client sends it in every session's handshake and the server rejects a
// mismatch, so a differential run can never silently compare two different
// experiments.
type Plan struct {
	// Spec is the fully-defaulted scenario.
	Spec scenario.Spec
	// Day is which deployment day of the scenario is being served.
	Day int
	// TrialSeed and AnalysisSeed are the daily loop's seeds for this day:
	// sessions randomize and analyze exactly as runner.Run would.
	TrialSeed    int64
	AnalysisSeed int64
	// Env is the world sessions run in (drift-aware for the plan's day).
	Env experiment.Env
	// Sessions is the day's trial size; ShardSize its aggregation shards.
	Sessions  int
	ShardSize int
	// SchemeNames are the day's arms in randomization order. A session's
	// arm is SchemeNames[first Intn draw of its session RNG].
	SchemeNames []string
	// Arrivals and Tick mirror the fleet engine's scheduling knobs; the
	// load generator reuses the identical arrival schedule.
	Arrivals fleet.ArrivalProcess
	Tick     float64
	// Hash is the plan identity validated in the session handshake.
	Hash string

	// Schemes and Slot exist only after Warm: the per-session algorithm
	// factories (sharing the served model through Slot) the daemon and the
	// virtual twin instantiate. Client-side plans leave them nil.
	Schemes []experiment.Scheme
	Slot    *runner.ModelSlot
}

// NewPlan derives the client-side plan for one day of a scenario. It is
// cheap — no model is trained — and deterministic: both ends derive the
// same plan from the same spec and day.
func NewPlan(spec scenario.Spec, day int) (*Plan, error) {
	d := spec.WithDefaults()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if day < 0 || day >= d.Daily.Days {
		return nil, fmt.Errorf("serve: day %d out of range for a %d-day scenario", day, d.Daily.Days)
	}
	env, err := d.BuildEnv()
	if err != nil {
		return nil, err
	}
	seed := *d.Seed
	p := &Plan{
		Spec:         d,
		Day:          day,
		TrialSeed:    runner.DaySeed(seed, day),
		AnalysisSeed: runner.DayAnalysisSeed(seed, day),
		Env:          env,
		Sessions:     d.Daily.Sessions,
		ShardSize:    d.ShardSize,
		Tick:         d.Engine.Tick,
		Arrivals:     d.Arrivals(),
		Hash:         fmt.Sprintf("%s:day%d", d.Hash(), day),
	}
	// Scheme names follow the daily loop: day 0 deploys the bootstrap
	// mixture (no model exists yet); later days deploy Fugu alongside BBA.
	names := func(ss []experiment.Scheme) []string {
		out := make([]string, len(ss))
		for i, s := range ss {
			out[i] = s.Name
		}
		return out
	}
	if day == 0 {
		p.SchemeNames = names(runner.BootstrapSchemes(0))
	} else {
		p.SchemeNames = names(runner.DeploySchemes(&runner.ModelSlot{}, 0))
	}
	return p, nil
}

// Warm makes the plan servable: for day > 0 it replays the scenario's
// daily loop for the preceding days (trials, telemetry, nightly training —
// runner.Run itself, so the model serving day D is exactly the model the
// daily loop would serve), then builds the day's scheme factories around a
// model slot. Day 0 needs no model and warms instantly.
func (p *Plan) Warm(workers int, logf func(format string, args ...any)) error {
	p.Slot = &runner.ModelSlot{}
	if p.Day > 0 {
		cfg, err := scenario.Compile(p.Spec)
		if err != nil {
			return err
		}
		cfg.Days = p.Day
		cfg.Workers = workers
		cfg.Logf = logf
		res, err := runner.Run(cfg)
		if err != nil {
			return fmt.Errorf("serve: warmup through day %d: %w", p.Day-1, err)
		}
		if res.TTP == nil {
			return fmt.Errorf("serve: warmup through day %d produced no model", p.Day-1)
		}
		p.Slot.Store(res.TTP)
		p.Schemes = runner.DeploySchemes(p.Slot, p.TrialSeed)
	} else {
		p.Schemes = runner.BootstrapSchemes(p.TrialSeed)
	}
	return nil
}

// Trial lowers a warmed plan into the experiment config the virtual twin
// executes — identical to the trial runner.Run's liveDay would build for
// this day, minus the telemetry recorder (recording never changes results).
func (p *Plan) Trial() (*experiment.Config, error) {
	if p.Schemes == nil {
		return nil, fmt.Errorf("serve: plan is not warmed (no scheme factories)")
	}
	return &experiment.Config{
		Env:      p.Env,
		Schemes:  p.Schemes,
		Sessions: p.Sessions,
		Seed:     p.TrialSeed,
		Day:      p.Day,
	}, nil
}

// Scheme returns the named arm's factory from a warmed plan.
func (p *Plan) Scheme(name string) (experiment.Scheme, bool) {
	for _, s := range p.Schemes {
		if s.Name == name {
			return s, true
		}
	}
	return experiment.Scheme{}, false
}

// RunVirtual executes the warmed plan on the virtual-time fleet engine —
// the deterministic twin of the wall-clock path. The returned per-scheme
// stats must match a full RunLoad of the same plan byte for byte; the
// differential harness pins exactly that.
func RunVirtual(p *Plan, workers int) ([]experiment.SchemeStats, *fleet.Stats, error) {
	trial, err := p.Trial()
	if err != nil {
		return nil, nil, err
	}
	acc, fst, err := fleet.RunTrial(trial, fleet.Config{
		ShardSize: p.ShardSize,
		Workers:   workers,
		Tick:      p.Tick,
		Arrivals:  p.Arrivals,
	})
	if err != nil {
		return nil, nil, err
	}
	return acc.Analyze(p.AnalysisSeed), fst, nil
}
