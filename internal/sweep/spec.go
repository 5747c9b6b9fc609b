package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"strings"

	"puffer/internal/scenario"
)

// Spec describes a sweep: a base scenario plus axes over its fields. The
// expansion is the cross product of the axes, in declaration order with
// the last axis varying fastest, applied to the base spec — every cell a
// fully-defaulted scenario.Spec with a canonical content hash.
type Spec struct {
	// Name labels the sweep; cell names are "<name>/<field>=<value>,...".
	Name string `json:"name,omitempty"`
	// Notes is free-form documentation.
	Notes string `json:"notes,omitempty"`
	// Scenario names a registered base scenario. Mutually exclusive with
	// Base; with neither, the base is the all-defaults spec.
	Scenario string `json:"scenario,omitempty"`
	// Base is an inline base scenario spec.
	Base *scenario.Spec `json:"base,omitempty"`
	// Seed drives random axes. Each axis's sample depends only on (Seed,
	// axis field), never on axis order or on the other axes. Default: 1.
	Seed int64 `json:"seed,omitempty"`
	// Axes are the sweep dimensions.
	Axes []Axis `json:"axes"`
}

// Axis is one sweep dimension over a scenario-spec field, either a grid
// (explicit Values) or a seeded-random sample (Samples from [Min, Max]).
type Axis struct {
	// Field is the scenario spec's JSON path, e.g. "drift.preset",
	// "daily.sessions", "engine.kind", "seed".
	Field string `json:"field"`
	// Values enumerates a grid axis. The values are JSON: strings for
	// string fields, numbers for numeric ones, etc.
	Values []json.RawMessage `json:"values,omitempty"`
	// Samples, when positive, makes this a random axis: that many draws
	// from [Min, Max] (integers when Int is set), reproducible per
	// (sweep seed, field).
	Samples int     `json:"samples,omitempty"`
	Min     float64 `json:"min,omitempty"`
	Max     float64 `json:"max,omitempty"`
	Int     bool    `json:"int,omitempty"`
}

// Parse decodes a sweep spec from strict JSON: unknown fields and trailing
// data are rejected, like scenario.Parse.
func Parse(blob []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("sweep: decoding spec: %w", err)
	}
	var extra any
	if err := dec.Decode(&extra); err == nil {
		return Spec{}, fmt.Errorf("sweep: trailing data after sweep JSON")
	}
	return s, nil
}

// ParseFile reads a sweep spec from a JSON file (strict, like Parse).
func ParseFile(path string) (Spec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("sweep: reading sweep file: %w", err)
	}
	s, err := Parse(blob)
	if err != nil {
		return Spec{}, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// Cell is one expanded experiment of a sweep.
type Cell struct {
	// Index is the cell's position in expansion order.
	Index int
	// Name is "<sweep>/<field>=<value>,..." — documentation only (cell
	// names are excluded from the hashes, like every spec name).
	Name string
	// Spec is the fully-defaulted, validated scenario.
	Spec scenario.Spec
	// Hash and GuardHash are the spec's content hash (the results-index
	// key) and its checkpoint-guard projection (the checkpoint-dir key).
	Hash, GuardHash string
}

// validate checks the sweep's own shape (the scenario fields are checked
// per cell during expansion, through the scenario parser and validator).
func (s *Spec) validate() error {
	if s.Scenario != "" && s.Base != nil {
		return fmt.Errorf("sweep: set scenario (a registered name) or base (an inline spec), not both")
	}
	seen := map[string]bool{}
	for i, a := range s.Axes {
		if a.Field == "" {
			return fmt.Errorf("sweep: axes[%d]: field is required", i)
		}
		if seen[a.Field] {
			return fmt.Errorf("sweep: axes[%d]: duplicate axis over %q", i, a.Field)
		}
		seen[a.Field] = true
		grid, random := len(a.Values) > 0, a.Samples > 0
		switch {
		case grid && random:
			return fmt.Errorf("sweep: axes[%d] (%s): values and samples are mutually exclusive", i, a.Field)
		case !grid && !random:
			return fmt.Errorf("sweep: axes[%d] (%s): need values (grid) or samples (random)", i, a.Field)
		case random && a.Max < a.Min:
			return fmt.Errorf("sweep: axes[%d] (%s): max %g < min %g", i, a.Field, a.Max, a.Min)
		}
	}
	return nil
}

// base resolves the sweep's base scenario.
func (s *Spec) base() (scenario.Spec, error) {
	switch {
	case s.Scenario != "":
		spec, ok := scenario.Lookup(s.Scenario)
		if !ok {
			return scenario.Spec{}, fmt.Errorf("sweep: unknown base scenario %q (want a registered name; see puffer-daily -list-scenarios)", s.Scenario)
		}
		return spec, nil
	case s.Base != nil:
		return s.Base.Clone(), nil
	default:
		return scenario.Spec{}, nil
	}
}

// axisValues materializes one axis's values: the grid as given, or the
// seeded-random sample. Random draws are seeded by (sweep seed, field
// name) alone, so a sample is reproducible even when axes are reordered
// or other axes change.
func (s *Spec) axisValues(a Axis) []json.RawMessage {
	if len(a.Values) > 0 {
		return a.Values
	}
	rng := rand.New(rand.NewSource(axisSeed(s.seed(), a.Field)))
	vals := make([]json.RawMessage, a.Samples)
	for i := range vals {
		if a.Int {
			lo, hi := int64(a.Min), int64(a.Max)
			v := lo
			if hi > lo {
				v = lo + rng.Int63n(hi-lo+1)
			}
			vals[i] = json.RawMessage(fmt.Sprintf("%d", v))
		} else {
			v := a.Min + rng.Float64()*(a.Max-a.Min)
			blob, _ := json.Marshal(v)
			vals[i] = json.RawMessage(blob)
		}
	}
	return vals
}

func (s *Spec) seed() int64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

// axisSeed mixes the sweep seed with an FNV-1a hash of the axis field into
// independent RNG seed material (splitmix64 finalizer, as elsewhere).
func axisSeed(seed int64, field string) int64 {
	h := fnv.New64a()
	h.Write([]byte(field))
	z := uint64(seed)*0x9E3779B97F4A7C15 + h.Sum64() + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & 0x7FFFFFFFFFFFFFFF)
}

// Expand lowers the sweep into its cells, deterministically: axes in
// declaration order, the last axis varying fastest, each combination
// applied to the fully-defaulted base spec through scenario.Spec.Set, a
// strict re-parse (so an axis over an unknown field is an error naming
// it). The optional
// transform — e.g. scenario.ScaleFromEnv for smoke runs — is applied to
// each cell before hashing, so the index keys match what actually runs.
func (s Spec) Expand(transform func(scenario.Spec) scenario.Spec) ([]Cell, error) {
	if err := s.validate(); err != nil {
		return nil, err
	}
	base, err := s.base()
	if err != nil {
		return nil, err
	}
	// Axes apply to the fully-defaulted base, without its own name/notes,
	// which would otherwise leak into every cell.
	base = base.WithDefaults()
	base.Name, base.Notes = "", ""

	values := make([][]json.RawMessage, len(s.Axes))
	total := 1
	for i, a := range s.Axes {
		values[i] = s.axisValues(a)
		total *= len(values[i])
	}

	cells := make([]Cell, 0, total)
	combo := make([]int, len(s.Axes))
	for n := 0; n < total; n++ {
		cell, err := s.buildCell(base, values, combo, len(cells), transform)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell)
		// Odometer increment: last axis fastest.
		for i := len(combo) - 1; i >= 0; i-- {
			combo[i]++
			if combo[i] < len(values[i]) {
				break
			}
			combo[i] = 0
		}
	}
	return cells, nil
}

// buildCell applies one axis combination to the base spec through
// scenario.Spec.Set and lowers it to a validated scenario spec.
func (s *Spec) buildCell(spec scenario.Spec, values [][]json.RawMessage, combo []int, idx int, transform func(scenario.Spec) scenario.Spec) (Cell, error) {
	var label []string
	for i, a := range s.Axes {
		raw := values[i][combo[i]]
		label = append(label, fmt.Sprintf("%s=%s", a.Field, labelValue(raw)))
		var err error
		if spec, err = spec.Set(a.Field, raw); err != nil {
			// Set names the unknown or mistyped field — the strictness
			// that catches a typo'd axis path.
			return Cell{}, fmt.Errorf("sweep: cell %s: %w", strings.Join(label, ","), err)
		}
	}
	name := strings.Join(label, ",")
	if s.Name != "" {
		name = s.Name + "/" + name
	}
	if name == "" {
		name = fmt.Sprintf("cell-%03d", idx)
	}
	spec.Name, spec.Notes = name, ""
	// Default before transforming: a scale transform must see the
	// effective days/sessions/epochs, not unset zeros.
	spec = spec.WithDefaults()
	if transform != nil {
		spec = transform(spec).WithDefaults()
	}
	if err := spec.Validate(); err != nil {
		return Cell{}, fmt.Errorf("sweep: cell %s: %w", name, err)
	}
	return Cell{
		Index:     idx,
		Name:      name,
		Spec:      spec,
		Hash:      spec.Hash(),
		GuardHash: spec.GuardHash(),
	}, nil
}

// labelValue renders an axis value for a cell name: strings bare, anything
// else in its JSON form.
func labelValue(raw json.RawMessage) string {
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		return s
	}
	return string(raw)
}
