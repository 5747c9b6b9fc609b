package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"puffer/internal/core"
	"puffer/internal/nn"
)

// TestCanonicalFixedPoint: marshal → unmarshal → hash is a fixed point for
// every registered scenario and for a spec exercising every pointer field.
func TestCanonicalFixedPoint(t *testing.T) {
	specs := map[string]Spec{}
	for _, name := range Names() {
		s, _ := Lookup(name)
		specs[name] = s
	}
	specs["hand-built"] = New(
		World("emulation"), Days(7), Sessions(40), Window(0),
		Retrain(false), Ablation(false), Seed(0), Shard(16), Hidden(), Horizon(2),
		Epochs(3), BatchSize(32), LR(2e-3), RecencyBase(0),
		Drift("shift"), Engine("fleet"), Bursts(10, 5), Tick(0.5),
	)

	for name, s := range specs {
		t.Run(name, func(t *testing.T) {
			blob := s.CanonicalJSON()
			re, err := Parse(blob)
			if err != nil {
				t.Fatalf("canonical JSON does not re-parse: %v", err)
			}
			if !bytes.Equal(re.CanonicalJSON(), blob) {
				t.Fatalf("canonical JSON is not a fixed point:\n%s\nvs\n%s", blob, re.CanonicalJSON())
			}
			if re.Hash() != s.Hash() {
				t.Fatal("round trip changed the content hash")
			}
			if re.GuardHash() != s.GuardHash() {
				t.Fatal("round trip changed the guard hash")
			}
			d := s.WithDefaults()
			if !bytes.Equal(d.WithDefaults().CanonicalJSON(), d.CanonicalJSON()) {
				t.Fatal("WithDefaults is not idempotent")
			}
		})
	}
}

// TestHashStableAcrossFieldOrder: the same spec authored with JSON fields
// in scrambled order (and defaults spelled out vs omitted) hashes
// identically.
func TestHashStableAcrossFieldOrder(t *testing.T) {
	a := []byte(`{
		"daily": {"sessions": 200, "days": 4},
		"drift": {"preset": "shift"},
		"seed": 9
	}`)
	b := []byte(`{
		"seed": 9,
		"drift": {"preset": "shift"},
		"engine": {"kind": "session", "tick": 0.25, "arrival": {"rate": 1, "process": "poisson"}},
		"daily": {"days": 4, "sessions": 200, "window": 14, "retrain": true}
	}`)
	sa, err := Parse(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Hash() != sb.Hash() {
		t.Fatalf("field order / spelled-out defaults changed the hash:\n%s\nvs\n%s", sa.CanonicalJSON(), sb.CanonicalJSON())
	}
	if sa.GuardHash() != sb.GuardHash() {
		t.Fatal("field order changed the guard hash")
	}
}

// TestCanonicalEngineBlock: an engine field the chosen kind or arrival
// process never reads does not reach the canonical form, so the spec hashes
// as the one without it. The first two pairs are what puffer-daily builds
// for -dist-workers 4 -engine fleet and for -scenario fleet-burst
// -arrival-rate 4.
func TestCanonicalEngineBlock(t *testing.T) {
	pairs := [][2]string{
		{`{"engine":{"kind":"fleet","dist_workers":4}}`, `{"engine":{"kind":"fleet"}}`},
		{`{"engine":{"kind":"fleet","arrival":{"process":"poisson","rate":4,"burst":50,"gap":20}}}`,
			`{"engine":{"kind":"fleet","arrival":{"rate":4}}}`},
		{`{"engine":{"kind":"fleet","arrival":{"process":"burst","rate":4,"burst":50,"gap":20}}}`,
			`{"engine":{"kind":"fleet","arrival":{"process":"burst","burst":50,"gap":20}}}`},
		{`{"engine":{"dist_workers":3}}`, `{}`},
	}
	for _, p := range pairs {
		a, err := Parse([]byte(p[0]))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Parse([]byte(p[1]))
		if err != nil {
			t.Fatal(err)
		}
		da, db := a.WithDefaults(), b.WithDefaults()
		if !bytes.Equal(da.CanonicalJSON(), db.CanonicalJSON()) || a.Hash() != b.Hash() {
			t.Errorf("%s resolves to\n%s\nbut %s to\n%s", p[0], da.CanonicalJSON(), p[1], db.CanonicalJSON())
		}
	}
	// dist_workers stays where the dist engine reads it, and a negative one
	// stays for Validate to refuse.
	d := New(Engine("dist"), DistWorkers(4)).WithDefaults()
	if d.Engine.DistWorkers != 4 {
		t.Fatalf("dist engine lost dist_workers: %+v", d.Engine)
	}
	bad := New(Engine("fleet"), DistWorkers(-1)).WithDefaults()
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "engine.dist_workers") {
		t.Fatalf("negative dist_workers under fleet: Validate = %v", err)
	}
}

// TestParseRejectsUnknownFieldsAndTrailingData: typos must not silently run
// a different experiment, and neither may a field the format no longer has
// (the raw drift knobs and the path-family override became presets): each
// error names what it refused.
func TestParseRejectsUnknownFieldsAndTrailingData(t *testing.T) {
	for _, c := range []struct{ blob, want string }{
		{`{"daily": {"sesions": 100}}`, "sesions"},
		{`{"daily": {"days": 2}, "drifts": {}}`, "drifts"},
		{`{"daily": {"days": 2}} {"x": 1}`, "trailing data"},
		{`{"drift": {"preset": "decay", "rate_factor_per_day": 0.8}}`, "rate_factor_per_day"},
		{`{"env": {"world": "insitu", "paths": "fcc"}}`, "paths"},
	} {
		if _, err := Parse([]byte(c.blob)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%s) error = %v, want one naming %q", c.blob, err, c.want)
		}
	}
}

// TestValidateRejectsOutOfRange: every class of invalid value gets an
// actionable error naming the JSON field.
func TestValidateRejectsOutOfRange(t *testing.T) {
	cases := []struct {
		mutate func(*Spec)
		want   string
	}{
		{func(s *Spec) { s.Env.World = "mars" }, "env.world"},
		{func(s *Spec) { s.Daily.Days = -1 }, "daily.days"},
		{func(s *Spec) { s.Daily.Sessions = -5 }, "daily.sessions"},
		{func(s *Spec) { s.Daily.Window = ptr(-1) }, "daily.window"},
		{func(s *Spec) { s.Model.Hidden = []int{64, 0} }, "model.hidden"},
		{func(s *Spec) { s.Model.Hidden = []int{nn.MaxWidth + 1} }, "model.hidden"},
		{func(s *Spec) { s.Model.Horizon = -2 }, "model.horizon"},
		{func(s *Spec) { s.Train.Epochs = -1 }, "train.epochs"},
		{func(s *Spec) { s.Train.LR = -0.1 }, "train.lr"},
		{func(s *Spec) { s.Train.RecencyBase = ptr(1.5) }, "train.recency_base"},
		{func(s *Spec) { s.Drift.Preset = "earthquake" }, "drift.preset"},
		{func(s *Spec) { s.Engine.Kind = "warp" }, "engine.kind"},
		{func(s *Spec) { s.Engine.Arrival.Process = "tsunami" }, "engine.arrival.process"},
		{func(s *Spec) { s.Engine.Arrival.Rate = -1 }, "engine.arrival.rate"},
		{func(s *Spec) { s.Engine.Kind = "fleet"; s.Engine.Arrival.Process = "burst" }, "engine.arrival.burst"},
		{func(s *Spec) { s.Engine.Tick = -0.25 }, "engine.tick"},
		{func(s *Spec) { s.Engine.DistWorkers = -2 }, "engine.dist_workers"},
		{func(s *Spec) { s.ShardSize = -64 }, "shard_size"},
		{func(s *Spec) { s.Train.LR = math.NaN() }, "train.lr"},
		{func(s *Spec) { s.Train.LR = math.Inf(1) }, "train.lr"},
		{func(s *Spec) { s.Train.RecencyBase = ptr(math.NaN()) }, "train.recency_base"},
		{func(s *Spec) { s.Engine.Arrival.Rate = math.NaN() }, "engine.arrival.rate"},
		{func(s *Spec) { s.Engine.Arrival.Rate = math.Inf(1) }, "engine.arrival.rate"},
		{func(s *Spec) { s.Engine.Arrival.Gap = math.Inf(1) }, "engine.arrival.gap"},
		{func(s *Spec) { s.Engine.Tick = math.Inf(1) }, "engine.tick"},
	}
	for _, c := range cases {
		s := New()
		c.mutate(&s)
		d := s.WithDefaults()
		// Re-apply: WithDefaults only fills zero values, so negative and
		// invalid settings survive into validation.
		c.mutate(&d)
		err := d.Validate()
		if err == nil {
			t.Fatalf("invalid spec (%s) accepted", c.want)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("error %q does not name the offending field %q", err, c.want)
		}
	}
	if _, err := Compile(New(Days(-1))); err == nil {
		t.Fatal("Compile must validate")
	}
	// A non-finite float is refused before anything marshals the spec.
	for _, o := range []Option{ArrivalRate(math.NaN()), Tick(math.Inf(1)), LR(math.NaN())} {
		if _, err := Compile(New(Days(1), Sessions(8), o)); err == nil {
			t.Fatal("Compile accepted a non-finite float")
		}
	}
}

// TestSpecSet: Set writes exactly one dotted JSON path through the strict
// parser — unknown paths and wrong types are errors naming the field, an
// explicit zero differs from unset, and every other field keeps its state.
func TestSpecSet(t *testing.T) {
	base := New(Named("base", "kept"), Seed(0), Hidden(), Drift("mix"), Engine("fleet"), Bursts(4, 2))
	for _, c := range []struct {
		path, value, want string
	}{
		{"daily.sesions", `12`, "sesions"},
		{"drfit.preset", `"shift"`, "drfit"},
		{"daily.days", `"three"`, "daily.days"},
		{"seed", `1.5`, "seed"},
		{"seed.low", `3`, "seed is not an object"},
		{"engine.kind", `fleet`, "engine.kind"},
	} {
		if _, err := base.Set(c.path, json.RawMessage(c.value)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Set(%s, %s) error = %v, want one naming %q", c.path, c.value, err, c.want)
		}
	}

	// daily.window: an explicit 0 trains on all days; unset means the default.
	zero, err := New().Set("daily.window", json.RawMessage(`0`))
	if err != nil {
		t.Fatal(err)
	}
	if zero.Daily.Window == nil || *zero.Daily.Window != 0 {
		t.Fatalf("window set to 0 reads %v", zero.Daily.Window)
	}
	if *zero.WithDefaults().Daily.Window != 0 || *New().WithDefaults().Daily.Window != core.DefaultTrainConfig().WindowDays {
		t.Fatal("explicit window 0 and unset window resolve alike")
	}

	// Off-path fields, Name and Notes included, keep their set-or-unset
	// state; intermediate objects are created as needed.
	got, err := base.Set("engine.arrival.rate", json.RawMessage(`2.5`))
	if err != nil {
		t.Fatal(err)
	}
	if got.Engine.Arrival.Rate != 2.5 {
		t.Fatalf("engine.arrival.rate = %v, want 2.5", got.Engine.Arrival.Rate)
	}
	got.Engine.Arrival.Rate = base.Engine.Arrival.Rate
	if !reflect.DeepEqual(got, base) {
		t.Fatalf("Set moved an off-path field:\n got: %+v\nwant: %+v", got, base)
	}
	fresh, err := Spec{}.Set("engine.arrival.rate", json.RawMessage(`3`))
	if err != nil || fresh.Engine.Arrival.Rate != 3 || fresh.Engine.Arrival.Process != "" {
		t.Fatalf("Set through an absent object: %+v, %v", fresh.Engine, err)
	}
}

// TestZeroVsUnsetSemantics: pointers distinguish explicit zeros from
// absent fields — the window, hidden-layer and seed cases that motivated
// them.
func TestZeroVsUnsetSemantics(t *testing.T) {
	// window: 0 means "all days", absent means 14.
	cfg, err := Compile(New(Window(0)))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Train.WindowDays != 0 {
		t.Fatalf("explicit window 0 compiled to %d", cfg.Train.WindowDays)
	}
	cfg, err = Compile(New())
	if err != nil {
		t.Fatal(err)
	}
	if want := core.DefaultTrainConfig().WindowDays; cfg.Train.WindowDays != want {
		t.Fatalf("absent window compiled to %d, want %d", cfg.Train.WindowDays, want)
	}

	// hidden: null is the default architecture, [] the linear ablation.
	linear, err := Parse([]byte(`{"model": {"hidden": []}}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err = Compile(linear)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Hidden == nil || len(cfg.Hidden) != 0 {
		t.Fatalf("explicit empty hidden compiled to %v, want a non-nil empty slice", cfg.Hidden)
	}
	deflt, err := Parse([]byte(`{"model": {"hidden": null}}`))
	if err != nil {
		t.Fatal(err)
	}
	cfg, err = Compile(deflt)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Hidden) != 2 || cfg.Hidden[0] != 64 || cfg.Hidden[1] != 64 {
		t.Fatalf("null hidden compiled to %v, want [64 64]", cfg.Hidden)
	}

	// seed: an explicit 0 is a valid seed, absent means 1.
	cfg, err = Compile(New(Seed(0)))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Seed != 0 {
		t.Fatalf("explicit seed 0 compiled to %d", cfg.Seed)
	}
}

// TestLookupReturnsDeepCopies: mutating a looked-up spec (including
// through its pointer fields) must never alter the registry.
func TestLookupReturnsDeepCopies(t *testing.T) {
	before, ok := Lookup("nightly-drift")
	if !ok {
		t.Fatal("nightly-drift not registered")
	}
	mutated, _ := Lookup("nightly-drift")
	*mutated.Daily.Window = 3
	mutated.Daily.Days = 1
	mutated.Model.Hidden = append(mutated.Model.Hidden, 8)

	after, _ := Lookup("nightly-drift")
	if !bytes.Equal(after.CanonicalJSON(), before.CanonicalJSON()) {
		t.Fatalf("mutating a Lookup result changed the registry:\n%s\nvs\n%s",
			after.CanonicalJSON(), before.CanonicalJSON())
	}
	if after.GuardHash() != before.GuardHash() {
		t.Fatal("mutating a Lookup result changed the registered guard hash")
	}
}

// TestGuardHashScope: result-shaping fields move the guard hash; days,
// engine, ablation, workers-side options, and documentation do not.
func TestGuardHashScope(t *testing.T) {
	base := New(Days(4), Drift("shift"))
	guard := base.GuardHash()

	same := []Spec{
		New(Days(9), Drift("shift")),
		New(Days(4), Drift("shift"), Ablation(false)),
		New(Days(4), Drift("shift"), Engine("fleet"), ArrivalRate(7), Tick(0.05)),
		New(Days(4), Drift("shift"), Named("x", "y")),
	}
	for i, s := range same {
		if s.GuardHash() != guard {
			t.Fatalf("resume-safe change %d moved the guard hash", i)
		}
		// The full content hash still sees those fields (Name/Notes
		// excepted): same experiment identity for the guard, different
		// spec identity overall.
		if i < 3 && s.Hash() == base.Hash() {
			t.Fatalf("resume-safe change %d should still move the full content hash", i)
		}
		if i == 3 && s.Hash() != base.Hash() {
			t.Fatal("Name/Notes must not move the full content hash")
		}
	}

	// The dist engine block is scheduling, not science: selecting it (at
	// any worker count) moves the full content hash but never the guard, so
	// a session-engine checkpoint resumes under dist and vice versa.
	dist := New(Days(4), Drift("shift"), DistWorkers(4))
	if dist.GuardHash() != guard {
		t.Fatal("dist engine selection moved the guard hash")
	}
	if dist.Hash() == base.Hash() {
		t.Fatal("dist engine selection should still move the full content hash")
	}
	if other := New(Days(4), Drift("shift"), DistWorkers(16)); other.GuardHash() != guard {
		t.Fatal("dist worker count moved the guard hash")
	}

	different := []Spec{
		New(Days(4), Drift("decay")),
		New(Days(4), Drift("shift"), Sessions(40)),
		New(Days(4), Drift("shift"), Seed(2)),
		New(Days(4), Drift("shift"), Window(0)),
		New(Days(4), Drift("shift"), Retrain(false)),
		New(Days(4), Drift("shift"), Epochs(2)),
		New(Days(4), Drift("shift"), Hidden(8)),
		New(Days(4), Drift("shift"), World("emulation")),
	}
	for i, s := range different {
		if s.GuardHash() == guard {
			t.Fatalf("result-shaping change %d did not move the guard hash", i)
		}
	}
}

// FuzzParseSpec: any input yields an error or a spec, and a spec that
// validates has a canonical form that re-parses to itself byte for byte
// with both hashes unchanged, and an engine block that carries no field its
// kind or arrival process ignores. Seeds live in testdata/fuzz/FuzzParseSpec
// (the committed scenario files, the golden specs, and the two CLI specs
// that once kept an ignored engine field).
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, blob []byte) {
		s, err := Parse(blob)
		if err != nil {
			return
		}
		d := s.WithDefaults()
		if d.Validate() != nil {
			return
		}
		e := d.Engine
		if e.Kind != "dist" && e.DistWorkers != 0 ||
			e.Arrival.Process == "poisson" && (e.Arrival.Burst != 0 || e.Arrival.Gap != 0) ||
			e.Arrival.Process == "burst" && e.Arrival.Rate != 0 {
			t.Fatalf("engine block keeps a field its kind or process ignores: %+v", e)
		}
		canon := s.CanonicalJSON()
		re, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical JSON does not re-parse: %v\n%s", err, canon)
		}
		if again := re.CanonicalJSON(); !bytes.Equal(again, canon) {
			t.Fatalf("canonical JSON is not a fixed point:\n%s\nvs\n%s", canon, again)
		}
		if re.Hash() != s.Hash() || re.GuardHash() != s.GuardHash() {
			t.Fatal("round trip changed a hash")
		}
	})
}
