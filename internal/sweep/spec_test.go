package sweep

import (
	"strings"
	"testing"

	"puffer/internal/scenario"
)

// tinySweep is a 2x2 grid over a small inline base — the shape the smoke
// grid uses, at unit-test scale.
const tinySweep = `{
  "name": "t",
  "base": {
    "daily": {"days": 2, "sessions": 16, "window": 2, "ablation": false},
    "model": {"hidden": [8], "horizon": 2},
    "train": {"epochs": 1},
    "shard_size": 4
  },
  "axes": [
    {"field": "drift.preset", "values": ["none", "shift"]},
    {"field": "seed", "values": [11, 12]}
  ]
}`

func mustParse(t *testing.T, blob string) Spec {
	t.Helper()
	sw, err := Parse([]byte(blob))
	if err != nil {
		t.Fatal(err)
	}
	return sw
}

// TestExpandDeterministic: expansion order is the axes' cross product with
// the last axis fastest, and two expansions are cell-for-cell identical.
func TestExpandDeterministic(t *testing.T) {
	sw := mustParse(t, tinySweep)
	cells, err := sw.Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	wantNames := []string{
		"t/drift.preset=none,seed=11",
		"t/drift.preset=none,seed=12",
		"t/drift.preset=shift,seed=11",
		"t/drift.preset=shift,seed=12",
	}
	if len(cells) != len(wantNames) {
		t.Fatalf("expanded %d cells, want %d", len(cells), len(wantNames))
	}
	for i, c := range cells {
		if c.Name != wantNames[i] {
			t.Fatalf("cell %d = %q, want %q", i, c.Name, wantNames[i])
		}
		if c.Index != i {
			t.Fatalf("cell %d has Index %d", i, c.Index)
		}
		if c.Hash == "" || c.GuardHash == "" {
			t.Fatalf("cell %d missing hashes", i)
		}
	}
	// All four cells are distinct experiments.
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.Hash] {
			t.Fatalf("duplicate hash %s", c.Hash)
		}
		seen[c.Hash] = true
	}

	again, err := mustParse(t, tinySweep).Expand(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if cells[i].Hash != again[i].Hash || cells[i].Name != again[i].Name {
			t.Fatalf("expansion not stable at cell %d", i)
		}
	}

	// The cell spec actually carries the axis values.
	d := cells[2].Spec
	if d.Drift.Preset != "shift" || *d.Seed != 11 {
		t.Fatalf("cell 2 spec did not take axis values: %+v", d)
	}
}

// TestExpandRejectsUnknownField: a typo'd axis path fails loudly through
// the strict scenario parse, naming the cell.
func TestExpandRejectsUnknownField(t *testing.T) {
	blob := `{"axes": [{"field": "drift.presett", "values": ["shift"]}]}`
	_, err := mustParse(t, blob).Expand(nil)
	if err == nil {
		t.Fatal("unknown axis field must be an error")
	}
	if !strings.Contains(err.Error(), "presett") {
		t.Fatalf("error should name the field: %v", err)
	}
}

func TestSweepValidation(t *testing.T) {
	// longAxis is a grid axis over field with n values.
	longAxis := func(field string, n int) string {
		return `{"field": "` + field + `", "values": [` + strings.Repeat("1,", n-1) + `1]}`
	}
	for _, tc := range []struct{ name, blob, want string }{
		{"registered base", `{"scenario": "stationary", "axes": [{"field": "seed", "values": [1]}]}`, `"scenario"`},
		{"no field", `{"axes": [{"values": [1]}]}`, "field is required"},
		{"duplicate axis", `{"axes": [{"field": "seed", "values": [1]}, {"field": "seed", "values": [2]}]}`, "duplicate axis"},
		{"no values", `{"axes": [{"field": "seed"}]}`, "values are required"},
		{"empty values", `{"axes": [{"field": "seed", "values": []}]}`, "values are required"},
		{"random axis", `{"axes": [{"field": "seed", "samples": 2, "min": 1, "max": 9}]}`, "samples"},
		{"sweep seed", `{"seed": 3, "axes": [{"field": "seed", "values": [1]}]}`, "seed"},
		{"axis product past the cap", `{"axes": [` + longAxis("seed", 101) + `, ` + longAxis("daily.sessions", 100) + `]}`, "more than"},
		{"unknown sweep field", `{"axes": [], "bogus": 1}`, "bogus"},
	} {
		sw, err := Parse([]byte(tc.blob))
		if err == nil {
			_, err = sw.Expand(nil)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestScenarioBaseAndTransform: an inline base scenario is inherited, and
// the transform is applied to each defaulted cell before hashing.
func TestScenarioBaseAndTransform(t *testing.T) {
	blob := `{"base": {"drift": {"preset": "shift"}}, "axes": [{"field": "seed", "values": [3, 4]}]}`
	shrink := func(s scenario.Spec) scenario.Spec {
		s.Daily.Days = 2
		s.Daily.Sessions = 8
		return s
	}
	cells, err := mustParse(t, blob).Expand(shrink)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cells {
		if c.Spec.Daily.Days != 2 || c.Spec.Daily.Sessions != 8 {
			t.Fatalf("transform not applied: %+v", c.Spec.Daily)
		}
		if c.Spec.Drift.Preset != "shift" {
			t.Fatalf("base not inherited: %+v", c.Spec.Drift)
		}
		// The hash must describe the transformed spec, or index keys
		// would never match what ran.
		if c.Hash != c.Spec.Hash() {
			t.Fatal("cell hash differs from its spec's hash")
		}
	}
	if cells[0].Hash == cells[1].Hash {
		t.Fatal("seed axis cells must differ")
	}
}

// FuzzParseSweep: any input yields a typed error or a faithful expansion,
// never a panic or an unbounded allocation. Only sweeps that validate to a
// few dozen cells are expanded, so each input stays fast. Seeds live in
// testdata/fuzz/FuzzParseSweep, among them the integer range and the
// sample count that once panicked Expand (random axes are gone, so both
// now end as parse errors).
func FuzzParseSweep(f *testing.F) {
	f.Add([]byte(tinySweep))
	f.Add([]byte(`{"axes": [{"field": "seed", "values": [1, 5, 9]}, {"field": "train.lr", "values": [1e-4, 1e-2]}]}`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		sw, err := Parse(blob)
		if err != nil {
			return
		}
		n, err := sw.validate()
		if err != nil || n > 48 {
			return
		}
		cells, err := sw.Expand(nil)
		if err != nil {
			return
		}
		if len(cells) != n {
			t.Fatalf("expanded %d cells, validate counted %d", len(cells), n)
		}
		for i, c := range cells {
			if c.Index != i || c.Hash != c.Spec.Hash() || c.GuardHash != c.Spec.GuardHash() {
				t.Fatalf("cell %d (%s): index %d, hashes %s/%s do not match its spec", i, c.Name, c.Index, c.Hash, c.GuardHash)
			}
		}
	})
}
