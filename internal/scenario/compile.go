package scenario

import (
	"fmt"

	"puffer/internal/core"
	"puffer/internal/experiment"
	"puffer/internal/fleet"
	"puffer/internal/netem"
	"puffer/internal/runner"
)

// BuildEnv materializes the spec's environment: the chosen world and the
// drift preset's schedule wrapped around its sampler (a zero schedule
// leaves the sampler untouched, keeping its name and checkpoint identity).
func (s Spec) BuildEnv() (experiment.Env, error) {
	d := s.WithDefaults()
	var env experiment.Env
	switch d.Env.World {
	case "insitu":
		env = experiment.DefaultEnv()
	case "emulation":
		env = experiment.EmulationEnv()
	default:
		return experiment.Env{}, fmt.Errorf("scenario: env.world = %q, want insitu or emulation", d.Env.World)
	}
	sched, err := netem.DriftPreset(d.Drift.Preset)
	if err != nil {
		return experiment.Env{}, err
	}
	if !sched.IsZero() {
		env.Paths = &netem.DriftingSampler{Base: env.Paths, Schedule: sched}
	}
	return env, nil
}

// Arrivals materializes the spec's fleet arrival process.
func (s Spec) Arrivals() fleet.ArrivalProcess {
	a := s.WithDefaults().Engine.Arrival
	if a.Process == "burst" {
		return fleet.BurstArrivals{Burst: a.Burst, Gap: a.Gap}
	}
	return fleet.PoissonArrivals{Rate: a.Rate}
}

// Compile resolves defaults, validates, and lowers the spec into the
// runner.Config that executes it. The compiled config carries the spec's
// guard hash and canonical JSON, which the runner's checkpoint manifest
// stores: the spec itself is the guard against resuming a checkpoint under
// a different experiment. Scheduling-only knobs (Workers, CheckpointDir,
// Logf, and the day engine, which Run selects from engine.kind) are left
// for the caller — they never shape results.
func Compile(s Spec) (runner.Config, error) {
	d := s.WithDefaults()
	if err := d.Validate(); err != nil {
		return runner.Config{}, err
	}
	env, err := d.BuildEnv()
	if err != nil {
		return runner.Config{}, err
	}
	train := core.TrainConfig{
		Epochs:      d.Train.Epochs,
		BatchSize:   d.Train.BatchSize,
		LR:          d.Train.LR,
		WindowDays:  *d.Daily.Window,
		RecencyBase: *d.Train.RecencyBase,
	}
	cfg := runner.Config{
		Env:            env,
		Days:           d.Daily.Days,
		SessionsPerDay: d.Daily.Sessions,
		ShardSize:      d.ShardSize,
		Seed:           *d.Seed,
		Retrain:        *d.Daily.Retrain,
		Hidden:         hiddenFor(d.Model.Hidden),
		Horizon:        d.Model.Horizon,
		Train:          train,
		SpecHash:       d.GuardHash(),
		SpecJSON:       d.CanonicalJSON(),
	}
	return cfg, nil
}

// hiddenFor lowers the spec's hidden-layer list for core.NewTTP, which
// wants an explicit non-nil empty slice for the linear ablation.
func hiddenFor(hidden []int) []int {
	if len(hidden) == 0 {
		return []int{}
	}
	return append([]int(nil), hidden...)
}
