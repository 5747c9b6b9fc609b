package scenario

// Option mutates a Spec under construction. Options compose left to right;
// New applies them to a zero Spec, so anything not set rides on the
// WithDefaults resolution like every other unset field.
type Option func(*Spec)

// New builds a Spec from functional options — the Go-caller counterpart of
// authoring a JSON spec file.
func New(opts ...Option) Spec {
	var s Spec
	for _, o := range opts {
		o(&s)
	}
	return s
}

// Named sets the documentation-only name and notes.
func Named(name, notes string) Option {
	return func(s *Spec) { s.Name, s.Notes = name, notes }
}

// World selects the environment: "insitu" or "emulation".
func World(w string) Option { return func(s *Spec) { s.Env.World = w } }

// Days sets the number of deployment days.
func Days(n int) Option { return func(s *Spec) { s.Daily.Days = n } }

// Sessions sets each day's randomized-trial size.
func Sessions(n int) Option { return func(s *Spec) { s.Daily.Sessions = n } }

// Window sets the sliding retraining window in days (0 = all days so far).
func Window(n int) Option { return func(s *Spec) { s.Daily.Window = ptr(n) } }

// Ablation toggles the frozen-model companion run.
func Ablation(on bool) Option { return func(s *Spec) { s.Daily.Ablation = ptr(on) } }

// Seed pins the experiment seed.
func Seed(v int64) Option { return func(s *Spec) { s.Seed = ptr(v) } }

// Shard sets sessions per aggregation shard.
func Shard(n int) Option { return func(s *Spec) { s.ShardSize = n } }

// Epochs sets the nightly training epochs.
func Epochs(n int) Option { return func(s *Spec) { s.Train.Epochs = n } }

// RecencyBase sets the per-day-of-age training weight multiplier (0 or 1 =
// uniform).
func RecencyBase(v float64) Option { return func(s *Spec) { s.Train.RecencyBase = ptr(v) } }

// Drift selects a named drift preset ("none", "decay", "shift", "mix").
func Drift(preset string) Option { return func(s *Spec) { s.Drift.Preset = preset } }

// Engine selects the execution engine ("session", "fleet", or "dist").
func Engine(kind string) Option { return func(s *Spec) { s.Engine.Kind = kind } }

// ArrivalRate sets a Poisson arrival process at the given intensity
// (sessions per virtual second).
func ArrivalRate(rate float64) Option {
	return func(s *Spec) {
		s.Engine.Arrival.Process = "poisson"
		s.Engine.Arrival.Rate = rate
	}
}

// Bursts sets a flash-crowd arrival process: bursts of `burst` sessions
// every `gap` virtual seconds.
func Bursts(burst int, gap float64) Option {
	return func(s *Spec) {
		s.Engine.Arrival.Process = "burst"
		s.Engine.Arrival.Burst = burst
		s.Engine.Arrival.Gap = gap
	}
}

// Tick sets the fleet engine's inference-batching tick (virtual seconds).
func Tick(v float64) Option { return func(s *Spec) { s.Engine.Tick = v } }
