package main

import (
	"strings"
	"testing"

	"puffer/internal/scenario"
)

// TestOverridePathsExist: every row of the override table names a real
// spec field of the kind it parses, pin included.
func TestOverridePathsExist(t *testing.T) {
	sample := map[kind]string{str: "x", num: "1", boolean: "true"}
	for name, o := range overrides {
		v, err := o.kind.value(sample[o.kind])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := o.apply(scenario.Spec{}, v); err != nil {
			t.Errorf("-%s: %v", name, err)
		}
	}
}

// TestOverrideFlagsRejectBadValues: a value the flag's field cannot hold,
// or a flag the command no longer has, fails at flag parse, with an error
// naming the flag.
func TestOverrideFlagsRejectBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-days", "abc"},
		{"-seed", "1.5"},
		{"-retrain=maybe"},
		{"-sessions", "1e2"},
		{"-arrival-rate", "NaN"},
		{"-tick", "Inf"},
		{"-drift-rate-factor", "0.8"}, // a raw drift knob: presets only
	} {
		_, err := parseCLI(args)
		if err == nil {
			t.Errorf("%v: accepted", args)
			continue
		}
		flagName := strings.SplitN(strings.TrimPrefix(args[0], "-"), "=", 2)[0]
		if !strings.Contains(err.Error(), "-"+flagName) {
			t.Errorf("%v: error %q does not name the flag", args, err)
		}
	}
}

// TestDistWorkersFlagSelectsEngine: -dist-workers alone flips the spec to
// the dist engine, while an explicit -engine wins over it in either order:
// overrides apply in flag.Visit's lexicographic order, not argument order.
func TestDistWorkersFlagSelectsEngine(t *testing.T) {
	cli, err := parseCLI([]string{"-dist-workers", "4"})
	if err != nil {
		t.Fatal(err)
	}
	if cli.spec.Engine.Kind != "dist" || cli.spec.Engine.DistWorkers != 4 {
		t.Fatalf("spec engine = %+v, want dist with 4 workers", cli.spec.Engine)
	}
	for _, args := range [][]string{
		{"-dist-workers", "4", "-engine", "session"},
		{"-engine", "session", "-dist-workers", "4"},
	} {
		cli, err = parseCLI(args)
		if err != nil {
			t.Fatal(err)
		}
		if cli.spec.Engine.Kind != "session" || cli.spec.Engine.DistWorkers != 4 {
			t.Fatalf("%v: explicit -engine lost to -dist-workers: %+v", args, cli.spec.Engine)
		}
	}
}
