package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"

	"puffer/internal/experiment"
)

// Spec is the single declarative description of an experiment: everything
// the platform needs to run it — environment, daily-loop shape, model and
// training knobs, drift schedule, execution engine, seed, sharding — in one
// serializable value. A Spec travels as JSON (strict: unknown fields are
// rejected), defaults are applied in exactly one place (WithDefaults), and
// the canonical form of a fully-defaulted spec has a stable content hash
// (Hash) whose guard projection (GuardHash) pins checkpoint manifests.
//
// Zero vs unset: fields where the zero value is itself meaningful are
// pointers — absent means "use the default", an explicit zero means zero.
// For example `"window": 0` trains on all days so far, while omitting
// `window` gives the default 14-day sliding window; `"hidden": []` is the
// linear-model ablation, while `"hidden": null` (or omitting it) is the
// paper's 64-64 architecture.
type Spec struct {
	// Name labels the spec (registry scenarios carry their registered
	// name). Documentation only: excluded from both hashes.
	Name string `json:"name,omitempty"`
	// Notes is free-form documentation, also excluded from the hashes.
	Notes string `json:"notes,omitempty"`

	Env    EnvSpec    `json:"env"`
	Daily  DailySpec  `json:"daily"`
	Model  ModelSpec  `json:"model"`
	Train  TrainSpec  `json:"train"`
	Drift  DriftSpec  `json:"drift"`
	Engine EngineSpec `json:"engine"`

	// Seed makes the whole run deterministic. Default (absent): 1.
	// An explicit 0 is a valid seed, hence the pointer.
	Seed *int64 `json:"seed,omitempty"`
	// ShardSize is sessions per aggregation shard. Default (0):
	// experiment.DefaultShardSize (64).
	ShardSize int `json:"shard_size,omitempty"`
}

// EnvSpec picks the world sessions run in.
type EnvSpec struct {
	// World is "insitu" (the deployment environment; default) or
	// "emulation" (the §5.2 FCC-trace testbed).
	World string `json:"world,omitempty"`
	// Paths optionally overrides the world's path family: "puffer",
	// "fcc", "cs2p", or "congested" (a low-capacity Puffer variant).
	// Default (""): the world's own family.
	Paths string `json:"paths,omitempty"`
}

// DailySpec shapes the continual (daily) loop.
type DailySpec struct {
	// Days is how many deployment days to simulate. Default (0): 3.
	Days int `json:"days,omitempty"`
	// Sessions is each day's randomized-trial size. Default (0): 150.
	Sessions int `json:"sessions,omitempty"`
	// Window is the sliding retraining window in days; an explicit 0
	// trains on all days so far. Default (absent): 14.
	Window *int `json:"window,omitempty"`
	// Retrain enables nightly warm-start retraining. Default (absent):
	// true; false serves the frozen day-0 model (the "Fugu-Feb" arm).
	Retrain *bool `json:"retrain,omitempty"`
	// Ablation, with Retrain on, also runs the frozen-model companion on
	// the same seed for the staleness comparison. Default (absent): true.
	Ablation *bool `json:"ablation,omitempty"`
}

// ModelSpec shapes the Transmission Time Predictor.
type ModelSpec struct {
	// Hidden are the TTP hidden-layer sizes; an explicit empty list is
	// the linear-model ablation. Default (null): [64, 64].
	Hidden []int `json:"hidden"`
	// Horizon is the TTP/MPC lookahead in chunks. Default (0): 5.
	Horizon int `json:"horizon,omitempty"`
}

// TrainSpec controls the nightly supervised training.
type TrainSpec struct {
	// Epochs per nightly phase. Default (0): 8.
	Epochs int `json:"epochs,omitempty"`
	// BatchSize is the minibatch size. Default (0): 64.
	BatchSize int `json:"batch_size,omitempty"`
	// LR is the Adam learning rate. Default (0): 1e-3.
	LR float64 `json:"lr,omitempty"`
	// RecencyBase is the per-day-of-age weight multiplier; an explicit 0
	// (or 1) weights all days uniformly. Default (absent): 0.9.
	RecencyBase *float64 `json:"recency_base,omitempty"`
}

// DriftSpec makes the path population nonstationary: a named preset plus
// raw per-knob overrides. An override applies only when present, so an
// explicit zero clears a preset knob while an absent knob keeps the
// preset's value — the same semantics the raw -drift-* CLI flags have
// always had.
type DriftSpec struct {
	// Preset is a named netem.DriftPreset: "none" (default), "decay",
	// "shift", or "mix".
	Preset string `json:"preset,omitempty"`

	// RateFactorPerDay compounds a daily capacity factor (0.9 = -10%/day).
	RateFactorPerDay *float64 `json:"rate_factor_per_day,omitempty"`
	// RateFactorFloor bounds the compounded capacity factor from below.
	RateFactorFloor *float64 `json:"rate_factor_floor,omitempty"`
	// SigmaWidenPerDay adds session-spread log-std-dev per day (nats/day).
	SigmaWidenPerDay *float64 `json:"sigma_widen_per_day,omitempty"`
	// SlowSharePerDay grows the slow-path share per day (fraction/day).
	SlowSharePerDay *float64 `json:"slow_share_per_day,omitempty"`
	// SlowShareCap caps the extra slow-path share (fraction).
	SlowShareCap *float64 `json:"slow_share_cap,omitempty"`
	// OutagesPerHour ramps deep outages (outages/hour added per day).
	OutagesPerHour *float64 `json:"outages_per_hour,omitempty"`
	// OutageCapPerHour caps the ramped outage rate (outages/hour; 0 =
	// uncapped).
	OutageCapPerHour *float64 `json:"outage_cap_per_hour,omitempty"`

	// Mix migrates the population toward another family: "congested",
	// "fcc", "cs2p", or "none" (clears a preset's mix; "" is accepted as
	// an alias for "none", matching the historical flag). When Mix
	// introduces a family the preset did not have, MixStartDay and
	// MixRampDays default to 0 and 3 rather than the preset's zeros.
	Mix *string `json:"mix,omitempty"`
	// MixStartDay is the first day with nonzero mix weight.
	MixStartDay *int `json:"mix_start_day,omitempty"`
	// MixRampDays is how many days the linear ramp takes to reach 100%
	// (an explicit 0 or negative value is a step change).
	MixRampDays *int `json:"mix_ramp_days,omitempty"`
}

// EngineSpec selects and tunes the execution engine. No engine field
// changes results — all engines are byte-identical at the same seeds —
// so the whole struct is excluded from the checkpoint guard, and a
// checkpoint written by one engine resumes under any other.
type EngineSpec struct {
	// Kind is "session" (default), "fleet", or "dist" (worker-process
	// shard execution).
	Kind string `json:"kind,omitempty"`
	// Arrival is the fleet engine's session arrival process.
	Arrival ArrivalSpec `json:"arrival,omitzero"`
	// Tick is the fleet engine's inference-batching tick in virtual
	// seconds. Default (0): 0.25.
	Tick float64 `json:"tick,omitempty"`
	// DistWorkers is the dist engine's worker-process count. Default
	// (0): GOMAXPROCS. Ignored by the other engines.
	DistWorkers int `json:"dist_workers,omitempty"`
}

// ArrivalSpec describes the fleet engine's arrival process.
type ArrivalSpec struct {
	// Process is "poisson" (default) or "burst".
	Process string `json:"process,omitempty"`
	// Rate is the Poisson intensity in sessions per virtual second.
	// Default (0): 1. Ignored by "burst".
	Rate float64 `json:"rate,omitempty"`
	// Burst is sessions per burst; Gap the virtual seconds between
	// bursts. Required (Burst > 0) when Process is "burst".
	Burst int     `json:"burst,omitempty"`
	Gap   float64 `json:"gap,omitempty"`
}

// Default values, applied in exactly one place (WithDefaults). The numbers
// deliberately equal the historical puffer-daily flag defaults, so a spec
// with everything unset runs exactly what the bare CLI always ran.
const (
	defaultDays        = 3
	defaultSessions    = 150
	defaultWindow      = 14
	defaultEpochs      = 8
	defaultBatchSize   = 64
	defaultLR          = 1e-3
	defaultSeed        = 1
	defaultRate        = 1.0
	defaultTick        = 0.25
	defaultRecencyBase = 0.9
	defaultMixStartDay = 0
	defaultMixRampDays = 3
)

// defaultHidden is the paper's TTP architecture.
var defaultHidden = []int{64, 64}

func ptr[T any](v T) *T { return &v }

// orp returns p's value, or def when p is nil.
func orp[T any](p *T, def T) T {
	if p != nil {
		return *p
	}
	return def
}

// WithDefaults returns a copy of the spec with every unset field resolved
// to its documented default — the one place defaulting happens. The result
// is idempotent: WithDefaults(WithDefaults(s)) == WithDefaults(s), which is
// what makes the canonical JSON form (and therefore the hashes) stable.
func (s Spec) WithDefaults() Spec {
	d := s
	if d.Env.World == "" {
		d.Env.World = "insitu"
	}
	if d.Daily.Days == 0 {
		d.Daily.Days = defaultDays
	}
	if d.Daily.Sessions == 0 {
		d.Daily.Sessions = defaultSessions
	}
	d.Daily.Window = ptr(orp(d.Daily.Window, defaultWindow))
	d.Daily.Retrain = ptr(orp(d.Daily.Retrain, true))
	d.Daily.Ablation = ptr(orp(d.Daily.Ablation, true))
	if d.Model.Hidden == nil {
		d.Model.Hidden = append([]int(nil), defaultHidden...)
	}
	if d.Model.Horizon == 0 {
		d.Model.Horizon = 5
	}
	if d.Train.Epochs == 0 {
		d.Train.Epochs = defaultEpochs
	}
	if d.Train.BatchSize == 0 {
		d.Train.BatchSize = defaultBatchSize
	}
	if d.Train.LR == 0 {
		d.Train.LR = defaultLR
	}
	d.Train.RecencyBase = ptr(orp(d.Train.RecencyBase, defaultRecencyBase))
	if d.Drift.Preset == "" {
		d.Drift.Preset = "none"
	}
	d.Engine = d.Engine.withEngineDefaults()
	d.Seed = ptr(orp(d.Seed, int64(defaultSeed)))
	if d.ShardSize == 0 {
		d.ShardSize = experiment.DefaultShardSize
	}
	return d
}

// withEngineDefaults resolves an EngineSpec's defaults — shared by
// WithDefaults and by GuardHash, which substitutes the canonical engine
// block because engine choice never changes results.
func (e EngineSpec) withEngineDefaults() EngineSpec {
	if e.Kind == "" {
		e.Kind = "session"
	}
	if e.Arrival.Process == "" {
		e.Arrival.Process = "poisson"
	}
	if e.Arrival.Rate == 0 && e.Arrival.Process == "poisson" {
		e.Arrival.Rate = defaultRate
	}
	if e.Tick == 0 {
		e.Tick = defaultTick
	}
	return e
}

// Clone returns a deep copy: a JSON round trip, so no pointer field or
// slice is shared with the receiver, and mutating the copy (or what its
// pointers point at) never touches the original. The registry hands out
// clones for exactly this reason.
func (s Spec) Clone() Spec {
	blob, err := json.Marshal(s)
	if err == nil {
		s, err = Parse(blob)
	}
	if err != nil {
		// Only a non-finite float fails to marshal: a bug, since no parsed
		// or registered spec holds one and Validate rejects it.
		panic(fmt.Sprintf("scenario: clone: %v", err))
	}
	return s
}

// Set returns a copy of the spec with the value at a dotted JSON path
// ("daily.window", "drift.mix", "engine.arrival.rate") replaced by v,
// creating intermediate objects as needed. The result is the strict Parse of
// the edited JSON, so an unknown path or a wrong-typed value is an error
// naming the field, and every field off the path keeps its set-or-unset
// state. puffer-daily's override flags and a sweep's axes both write a spec
// through Set.
func (s Spec) Set(path string, v json.RawMessage) (Spec, error) {
	blob, err := json.Marshal(s)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %s: %w", path, err)
	}
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.UseNumber() // re-marshaling keeps every number's digits (int64 seeds)
	var root map[string]any
	if err := dec.Decode(&root); err != nil {
		return Spec{}, fmt.Errorf("scenario: %s: %w", path, err)
	}
	m, parts := root, strings.Split(path, ".")
	for i, p := range parts[:len(parts)-1] {
		switch next := m[p].(type) {
		case map[string]any:
			m = next
		case nil:
			child := map[string]any{}
			m[p], m = child, child
		default:
			return Spec{}, fmt.Errorf("scenario: %s: %s is not an object", path, strings.Join(parts[:i+1], "."))
		}
	}
	m[parts[len(parts)-1]] = v
	if blob, err = json.Marshal(root); err == nil {
		s, err = decodeStrict(blob)
	}
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %s = %s: %w", path, v, err)
	}
	return s, nil
}

// enum reports whether v is one of the allowed values.
func enum(v string, allowed ...string) bool {
	for _, a := range allowed {
		if v == a {
			return true
		}
	}
	return false
}

// Validate checks a fully-defaulted spec, returning actionable errors that
// name the JSON field. Call WithDefaults first (Compile does both).
func (s *Spec) Validate() error {
	d := &s.Drift
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"train.lr", s.Train.LR},
		{"train.recency_base", orp(s.Train.RecencyBase, 0)},
		{"engine.arrival.rate", s.Engine.Arrival.Rate},
		{"engine.arrival.gap", s.Engine.Arrival.Gap},
		{"engine.tick", s.Engine.Tick},
		{"drift.rate_factor_per_day", orp(d.RateFactorPerDay, 0)},
		{"drift.rate_factor_floor", orp(d.RateFactorFloor, 0)},
		{"drift.sigma_widen_per_day", orp(d.SigmaWidenPerDay, 0)},
		{"drift.slow_share_per_day", orp(d.SlowSharePerDay, 0)},
		{"drift.slow_share_cap", orp(d.SlowShareCap, 0)},
		{"drift.outages_per_hour", orp(d.OutagesPerHour, 0)},
		{"drift.outage_cap_per_hour", orp(d.OutageCapPerHour, 0)},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("scenario: %s = %g, must be finite", f.name, f.v)
		}
	}
	if !enum(s.Env.World, "insitu", "emulation") {
		return fmt.Errorf("scenario: env.world = %q, want insitu or emulation", s.Env.World)
	}
	if s.Env.Paths != "" && !enum(s.Env.Paths, "puffer", "fcc", "cs2p", "congested") {
		return fmt.Errorf("scenario: env.paths = %q, want puffer, fcc, cs2p, or congested (or omit it for the world's own family)", s.Env.Paths)
	}
	if s.Daily.Days <= 0 {
		return fmt.Errorf("scenario: daily.days = %d, must be positive", s.Daily.Days)
	}
	if s.Daily.Sessions <= 0 {
		return fmt.Errorf("scenario: daily.sessions = %d, must be positive", s.Daily.Sessions)
	}
	if w := orp(s.Daily.Window, 0); w < 0 {
		return fmt.Errorf("scenario: daily.window = %d, must be >= 0 (0 trains on all days so far)", w)
	}
	for i, h := range s.Model.Hidden {
		if h <= 0 {
			return fmt.Errorf("scenario: model.hidden[%d] = %d, layer widths must be positive (use [] for the linear ablation)", i, h)
		}
	}
	if s.Model.Horizon < 1 {
		return fmt.Errorf("scenario: model.horizon = %d, must be >= 1", s.Model.Horizon)
	}
	if s.Train.Epochs <= 0 {
		return fmt.Errorf("scenario: train.epochs = %d, must be positive", s.Train.Epochs)
	}
	if s.Train.BatchSize <= 0 {
		return fmt.Errorf("scenario: train.batch_size = %d, must be positive", s.Train.BatchSize)
	}
	if s.Train.LR <= 0 {
		return fmt.Errorf("scenario: train.lr = %g, must be positive", s.Train.LR)
	}
	if rb := orp(s.Train.RecencyBase, 0); rb < 0 || rb > 1 {
		return fmt.Errorf("scenario: train.recency_base = %g, must be in [0, 1] (0 or 1 = uniform weighting)", rb)
	}
	if err := s.Drift.validate(); err != nil {
		return err
	}
	if !enum(s.Engine.Kind, "session", "fleet", "dist") {
		return fmt.Errorf("scenario: engine.kind = %q, want session, fleet, or dist", s.Engine.Kind)
	}
	if s.Engine.DistWorkers < 0 {
		return fmt.Errorf("scenario: engine.dist_workers = %d, must be >= 0 (0 = GOMAXPROCS)", s.Engine.DistWorkers)
	}
	switch s.Engine.Arrival.Process {
	case "poisson":
		if s.Engine.Arrival.Rate <= 0 {
			return fmt.Errorf("scenario: engine.arrival.rate = %g, must be positive (sessions per virtual second)", s.Engine.Arrival.Rate)
		}
	case "burst":
		if s.Engine.Arrival.Burst <= 0 {
			return fmt.Errorf("scenario: engine.arrival.burst = %d, must be positive (sessions per burst)", s.Engine.Arrival.Burst)
		}
		if s.Engine.Arrival.Gap < 0 {
			return fmt.Errorf("scenario: engine.arrival.gap = %g, must be >= 0 (virtual seconds between bursts)", s.Engine.Arrival.Gap)
		}
	default:
		return fmt.Errorf("scenario: engine.arrival.process = %q, want poisson or burst", s.Engine.Arrival.Process)
	}
	if s.Engine.Tick <= 0 {
		return fmt.Errorf("scenario: engine.tick = %g, must be positive (virtual seconds)", s.Engine.Tick)
	}
	if s.ShardSize <= 0 {
		return fmt.Errorf("scenario: shard_size = %d, must be positive", s.ShardSize)
	}
	return nil
}

func (d *DriftSpec) validate() error {
	if !enum(d.Preset, "none", "decay", "shift", "mix") {
		return fmt.Errorf("scenario: drift.preset = %q, want none, decay, shift, or mix", d.Preset)
	}
	nonneg := func(name string, p *float64) error {
		if p != nil && *p < 0 {
			return fmt.Errorf("scenario: drift.%s = %g, must be >= 0", name, *p)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		p    *float64
	}{
		{"rate_factor_per_day", d.RateFactorPerDay},
		{"rate_factor_floor", d.RateFactorFloor},
		{"sigma_widen_per_day", d.SigmaWidenPerDay},
		{"outages_per_hour", d.OutagesPerHour},
		{"outage_cap_per_hour", d.OutageCapPerHour},
	} {
		if err := nonneg(c.name, c.p); err != nil {
			return err
		}
	}
	frac := func(name string, p *float64) error {
		if p != nil && (*p < 0 || *p > 1) {
			return fmt.Errorf("scenario: drift.%s = %g, must be a fraction in [0, 1]", name, *p)
		}
		return nil
	}
	if err := frac("slow_share_per_day", d.SlowSharePerDay); err != nil {
		return err
	}
	if err := frac("slow_share_cap", d.SlowShareCap); err != nil {
		return err
	}
	if d.Mix != nil && !enum(*d.Mix, "none", "", "congested", "fcc", "cs2p") {
		return fmt.Errorf("scenario: drift.mix = %q, want congested, fcc, cs2p, or none", *d.Mix)
	}
	if d.MixStartDay != nil && *d.MixStartDay < 0 {
		return fmt.Errorf("scenario: drift.mix_start_day = %d, must be >= 0", *d.MixStartDay)
	}
	return nil
}

// Parse decodes a spec from strict JSON: unknown fields are rejected (they
// are almost always typos that would otherwise silently run a different
// experiment), and so is trailing garbage. The result is returned as
// written — call WithDefaults (or Compile) to resolve defaults.
func Parse(blob []byte) (Spec, error) {
	s, err := decodeStrict(blob)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: decoding spec: %w", err)
	}
	return s, nil
}

func decodeStrict(blob []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, err
	}
	var extra any
	if err := dec.Decode(&extra); err == nil {
		return Spec{}, errors.New("trailing data after spec JSON")
	}
	return s, nil
}

// ParseFile reads a spec from a JSON file (strict, like Parse).
func ParseFile(path string) (Spec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: reading spec file: %w", err)
	}
	s, err := Parse(blob)
	if err != nil {
		return Spec{}, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// CanonicalJSON renders the fully-defaulted spec in its canonical form:
// defaults materialized, fields in declaration order, stable indentation.
// Two specs describing the same experiment produce identical bytes, no
// matter which fields their authors spelled out or in what order.
func (s Spec) CanonicalJSON() []byte {
	d := s.WithDefaults()
	blob, err := json.MarshalIndent(&d, "", "  ")
	if err != nil {
		// A non-finite float is the one value JSON cannot hold, and
		// Validate rejects it; any other spec marshals.
		panic(fmt.Sprintf("scenario: canonical marshal: %v", err))
	}
	return append(blob, '\n')
}
