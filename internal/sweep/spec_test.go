package sweep

import (
	"math"
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

// TestRandomAxisReproduciblePerSeedAndField: a random axis's sample is a
// pure function of (sweep seed, axis field) — independent of axis order
// and of the other axes — and changes when either input changes.
func TestRandomAxisReproduciblePerSeedAndField(t *testing.T) {
	withAxes := func(seed int64, axesJSON string) []Cell {
		blob := `{"seed": ` + itoa(seed) + `, "base": {
      "daily": {"days": 2, "sessions": 16, "window": 2, "ablation": false},
      "model": {"hidden": [8], "horizon": 2},
      "train": {"epochs": 1},
      "shard_size": 4
    }, "axes": ` + axesJSON + `}`
		cells, err := mustParse(t, blob).Expand(nil)
		if err != nil {
			t.Fatal(err)
		}
		return cells
	}
	seedsOf := func(cells []Cell) []int64 {
		var out []int64
		seen := map[int64]bool{}
		for _, c := range cells {
			s := *c.Spec.Seed
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
		return out
	}

	randAxis := `{"field": "seed", "samples": 3, "min": 1, "max": 1000000, "int": true}`
	a := seedsOf(withAxes(7, `[`+randAxis+`]`))
	if len(a) != 3 {
		t.Fatalf("sampled %d distinct seeds, want 3", len(a))
	}

	// Same (sweep seed, field), different axis position and company.
	b := seedsOf(withAxes(7, `[{"field": "drift.preset", "values": ["none", "shift"]}, `+randAxis+`]`))
	if !equalInt64(a, b) {
		t.Fatalf("sample changed with axis order/company: %v vs %v", a, b)
	}

	// Different sweep seed: different sample.
	c := seedsOf(withAxes(8, `[`+randAxis+`]`))
	if equalInt64(a, c) {
		t.Fatalf("sample did not change with the sweep seed: %v", a)
	}

	// Different field, same seed: independent stream. Sample sessions
	// instead and check the draws differ from the seed-axis draws.
	d := withAxes(7, `[{"field": "daily.sessions", "samples": 3, "min": 1, "max": 1000000, "int": true}]`)
	var sessions []int64
	for _, cell := range d {
		sessions = append(sessions, int64(cell.Spec.Daily.Sessions))
	}
	if equalInt64(a, sessions) {
		t.Fatalf("different fields drew the same sample: %v", a)
	}

	// Float sampling is reproducible too.
	f1 := withAxes(7, `[{"field": "engine.tick", "samples": 2, "min": 0.5, "max": 2.5}]`)
	f2 := withAxes(7, `[{"field": "engine.tick", "samples": 2, "min": 0.5, "max": 2.5}]`)
	for i := range f1 {
		if f1[i].Spec.Engine.Tick != f2[i].Spec.Engine.Tick {
			t.Fatalf("float sample not reproducible: %v vs %v", f1[i].Spec.Engine.Tick, f2[i].Spec.Engine.Tick)
		}
		if f1[i].Spec.Engine.Tick < 0.5 || f1[i].Spec.Engine.Tick > 2.5 {
			t.Fatalf("float sample out of range: %v", f1[i].Spec.Engine.Tick)
		}
	}
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	var b [20]byte
	i := len(b)
	for v != 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		b[i] = '-'
	}
	return string(b[i:])
}

func equalInt64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
	for _, tc := range []struct{ name, blob string }{
		{"both bases", `{"scenario": "stationary", "base": {}, "axes": [{"field": "seed", "values": [1]}]}`},
		{"no field", `{"axes": [{"values": [1]}]}`},
		{"duplicate axis", `{"axes": [{"field": "seed", "values": [1]}, {"field": "seed", "values": [2]}]}`},
		{"grid and random", `{"axes": [{"field": "seed", "values": [1], "samples": 2}]}`},
		{"neither grid nor random", `{"axes": [{"field": "seed"}]}`},
		{"max below min", `{"axes": [{"field": "seed", "samples": 2, "min": 5, "max": 1}]}`},
		{"unknown scenario", `{"scenario": "no-such", "axes": [{"field": "seed", "values": [1]}]}`},
		{"int span overflows int64", `{"axes": [{"field": "seed", "samples": 1, "int": true, "min": -9e18, "max": 9e18}]}`},
		{"int bound past int64", `{"axes": [{"field": "seed", "samples": 1, "int": true, "min": 0, "max": 1e19}]}`},
		{"float span overflows", `{"axes": [{"field": "train.lr", "samples": 1, "min": -1.7e308, "max": 1.7e308}]}`},
		{"samples past the cap", `{"axes": [{"field": "seed", "samples": 100000000000000}]}`},
		{"axis product past the cap", `{"axes": [{"field": "seed", "samples": 1000}, {"field": "daily.sessions", "samples": 1000, "min": 1, "max": 9, "int": true}]}`},
	} {
		if _, err := mustParse(t, tc.blob).Expand(nil); err == nil {
			t.Fatalf("%s: want error", tc.name)
		}
	}
	nonFinite := Spec{Axes: []Axis{{Field: "seed", Samples: 1, Min: math.Inf(-1)}}}
	if _, err := nonFinite.Expand(nil); err == nil || !strings.Contains(err.Error(), "finite") {
		t.Fatalf("a non-finite min: Expand returned %v, want an error naming it", err)
	}
	if _, err := Parse([]byte(`{"axes": [], "bogus": 1}`)); err == nil {
		t.Fatal("unknown sweep field must be rejected")
	}
}

// TestScenarioBaseAndTransform: a registered-scenario base resolves, and
// the transform is applied to each defaulted cell before hashing.
func TestScenarioBaseAndTransform(t *testing.T) {
	blob := `{"scenario": "drift-shift", "axes": [{"field": "seed", "values": [3, 4]}]}`
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
			t.Fatalf("registered base not inherited: %+v", c.Spec.Drift)
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
// sample count that once panicked Expand.
func FuzzParseSweep(f *testing.F) {
	f.Add([]byte(tinySweep))
	f.Add([]byte(`{"seed": 3, "axes": [{"field": "seed", "samples": 3, "int": true, "min": 1, "max": 9}, {"field": "train.lr", "samples": 2, "min": 1e-4, "max": 1e-2}]}`))
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
