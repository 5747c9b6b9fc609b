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

// TestOverrideFlagsRejectBadValues: a value the flag's field cannot hold
// fails at flag parse, with an error naming the flag.
func TestOverrideFlagsRejectBadValues(t *testing.T) {
	for _, args := range [][]string{
		{"-days", "abc"},
		{"-seed", "1.5"},
		{"-retrain=maybe"},
		{"-sessions", "1e2"},
		{"-drift-rate-factor", "NaN"},
		{"-tick", "Inf"},
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
