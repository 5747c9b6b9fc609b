package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
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
	// Base is the inline base scenario spec; without one, the base is the
	// all-defaults spec.
	Base *scenario.Spec `json:"base,omitempty"`
	// Axes are the sweep dimensions.
	Axes []Axis `json:"axes"`
}

// Axis is one sweep dimension over a scenario-spec field: a grid of
// explicit values.
type Axis struct {
	// Field is the scenario spec's JSON path, e.g. "drift.preset",
	// "daily.sessions", "engine.kind", "seed".
	Field string `json:"field"`
	// Values enumerates the axis. The values are JSON: strings for string
	// fields, numbers for numeric ones, etc.
	Values []json.RawMessage `json:"values,omitempty"`
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

// maxCells caps a sweep's expansion. Every cell is a whole experiment, so
// a real sweep is far smaller; the cap stops a few long axes from
// multiplying into a huge allocation.
const maxCells = 10000

// validate checks the sweep's own shape (the scenario fields are checked
// per cell during expansion, through the scenario parser and validator) and
// returns its cell count, the product of the axis lengths.
func (s *Spec) validate() (int, error) {
	seen := map[string]bool{}
	cells := 1
	for i, a := range s.Axes {
		if a.Field == "" {
			return 0, fmt.Errorf("sweep: axes[%d]: field is required", i)
		}
		if seen[a.Field] {
			return 0, fmt.Errorf("sweep: axes[%d]: duplicate axis over %q", i, a.Field)
		}
		seen[a.Field] = true
		n := len(a.Values)
		if n == 0 {
			return 0, fmt.Errorf("sweep: axes[%d] (%s): values are required", i, a.Field)
		}
		if n > maxCells/cells {
			return 0, fmt.Errorf("sweep: axes[%d] (%s): the sweep expands to more than %d cells", i, a.Field, maxCells)
		}
		cells *= n
	}
	return cells, nil
}

// Expand lowers the sweep into its cells, deterministically: axes in
// declaration order, the last axis varying fastest, each combination
// applied to the fully-defaulted base spec through scenario.Spec.Set, a
// strict re-parse (so an axis over an unknown field is an error naming
// it). The optional
// transform — e.g. scenario.ScaleFromEnv for smoke runs — is applied to
// each cell before hashing, so the index keys match what actually runs.
func (s Spec) Expand(transform func(scenario.Spec) scenario.Spec) ([]Cell, error) {
	total, err := s.validate()
	if err != nil {
		return nil, err
	}
	// Axes apply to the fully-defaulted base, without its own name/notes,
	// which would otherwise leak into every cell.
	var base scenario.Spec
	if s.Base != nil {
		base = s.Base.Clone()
	}
	base = base.WithDefaults()
	base.Name, base.Notes = "", ""

	cells := make([]Cell, 0, total)
	combo := make([]int, len(s.Axes))
	for n := 0; n < total; n++ {
		cell, err := s.buildCell(base, combo, len(cells), transform)
		if err != nil {
			return nil, err
		}
		cells = append(cells, cell)
		// Odometer increment: last axis fastest.
		for i := len(combo) - 1; i >= 0; i-- {
			combo[i]++
			if combo[i] < len(s.Axes[i].Values) {
				break
			}
			combo[i] = 0
		}
	}
	return cells, nil
}

// buildCell applies one axis combination to the base spec through
// scenario.Spec.Set and lowers it to a validated scenario spec.
func (s *Spec) buildCell(spec scenario.Spec, combo []int, idx int, transform func(scenario.Spec) scenario.Spec) (Cell, error) {
	var label []string
	for i, a := range s.Axes {
		raw := a.Values[combo[i]]
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
