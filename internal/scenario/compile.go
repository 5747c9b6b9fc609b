package scenario

import (
	"fmt"

	"puffer/internal/core"
	"puffer/internal/experiment"
	"puffer/internal/fleet"
	"puffer/internal/netem"
	"puffer/internal/runner"
)

// pathFamily maps a spec path-family name to its sampler. "congested" is
// the low-capacity Puffer variant the drift "mix" preset migrates toward.
func pathFamily(name string) (netem.Sampler, error) {
	switch name {
	case "puffer":
		return netem.PufferPaths{}, nil
	case "fcc":
		return netem.FCCPaths{}, nil
	case "cs2p":
		return netem.CS2PPaths{}, nil
	case "congested":
		return netem.PufferPaths{MedianRate: 1.2e6, Sigma: 0.5}, nil
	default:
		return nil, fmt.Errorf("scenario: unknown path family %q (want puffer, fcc, cs2p, or congested)", name)
	}
}

// Schedule resolves the spec's drift block into the effective
// netem.DriftSchedule: the named preset with the raw per-knob overrides
// applied on top. Override semantics match the historical -drift-* flags:
// a knob overrides only when present, so explicit zeros clear preset knobs,
// and a mix family the preset did not have takes the flag-default ramp
// (start day 0, 3-day ramp) instead of the preset's zeros.
func (s Spec) Schedule() (netem.DriftSchedule, error) {
	d := s.WithDefaults().Drift
	sched, err := netem.DriftPreset(d.Preset)
	if err != nil {
		return netem.DriftSchedule{}, err
	}
	if d.RateFactorPerDay != nil {
		sched.RateFactorPerDay = *d.RateFactorPerDay
	}
	if d.RateFactorFloor != nil {
		sched.RateFactorFloor = *d.RateFactorFloor
	}
	if d.SigmaWidenPerDay != nil {
		sched.SigmaWidenPerDay = *d.SigmaWidenPerDay
	}
	if d.SlowSharePerDay != nil {
		sched.SlowSharePerDay = *d.SlowSharePerDay
	}
	if d.SlowShareCap != nil {
		sched.SlowShareCap = *d.SlowShareCap
	}
	if d.OutagesPerHour != nil {
		sched.OutageRatePerDay = *d.OutagesPerHour / 3600
	}
	if d.OutageCapPerHour != nil {
		sched.OutageRateCap = *d.OutageCapPerHour / 3600
	}
	if d.Mix != nil {
		switch *d.Mix {
		case "none", "": // "" for parity with the historical -drift-mix flag
			sched.MixWith = nil
		default:
			fam, err := pathFamily(*d.Mix)
			if err != nil {
				return netem.DriftSchedule{}, err
			}
			sched.MixWith = fam
			sched.MixStartDay = orp(d.MixStartDay, defaultMixStartDay)
			sched.MixRampDays = orp(d.MixRampDays, defaultMixRampDays)
		}
	}
	if d.MixStartDay != nil {
		sched.MixStartDay = *d.MixStartDay
	}
	if d.MixRampDays != nil {
		sched.MixRampDays = *d.MixRampDays
	}
	return sched, nil
}

// BuildEnv materializes the spec's environment: the chosen world, the
// optional path-family override, and the drift schedule wrapped around the
// base sampler (a zero schedule leaves the sampler untouched, keeping its
// name and checkpoint identity).
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
	if d.Env.Paths != "" {
		fam, err := pathFamily(d.Env.Paths)
		if err != nil {
			return experiment.Env{}, err
		}
		env.Paths = fam
	}
	sched, err := d.Schedule()
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
