package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	"puffer/internal/obscli"
	"puffer/internal/scenario"
)

// cliConfig is everything the command line resolves to: the effective
// scenario spec (base spec plus flag overrides) and the scheduling-side
// options that never enter a spec.
type cliConfig struct {
	spec scenario.Spec

	list        bool
	jsonOut     bool
	dump        bool
	workers     int
	checkpoint  string
	distTimeout time.Duration
	quiet       bool
	obs         obscli.Options
	obsEvents   string
}

// kind is how an override flag's text becomes a JSON value.
type kind int

const (
	str kind = iota
	num
	boolean
)

// override is one spec-override flag: the JSON path it sets through
// scenario.Spec.Set, its value kind, its usage (units in parentheses), and
// an optional second field it pins, written path=json.
type override struct {
	path  string
	kind  kind
	usage string
	pin   string
}

// overrides maps every spec-override flag to the spec field it writes.
var overrides = map[string]override{
	"days":         {"daily.days", num, "deployment days to simulate (count)", ""},
	"sessions":     {"daily.sessions", num, "randomized-trial size per day (sessions)", ""},
	"window":       {"daily.window", num, "sliding retraining window (days; 0 = all days so far)", ""},
	"retrain":      {"daily.retrain", boolean, "retrain the TTP nightly (false = frozen day-0 model)", ""},
	"ablation":     {"daily.ablation", boolean, "with retraining, also run the frozen-model staleness ablation", ""},
	"engine":       {"engine.kind", str, "execution engine — session, fleet, or dist; results are byte-identical", ""},
	"dist-workers": {"engine.dist_workers", num, "dist engine worker-process count (0 = GOMAXPROCS; selects the dist engine); never changes results", `engine.kind="dist"`},
	"arrival-rate": {"engine.arrival.rate", num, "fleet engine Poisson arrival intensity (sessions per virtual second; selects the poisson process)", `engine.arrival.process="poisson"`},
	"tick":         {"engine.tick", num, "fleet engine inference-batching tick (virtual seconds; never changes results)", ""},
	"shard":        {"shard_size", num, "sessions per aggregation shard (sessions)", ""},
	"seed":         {"seed", num, "experiment seed (any int64)", ""},
	"epochs":       {"train.epochs", num, "nightly training epochs (count)", ""},
	"env":          {"env.world", str, "environment world, insitu or emulation", ""},
	"drift":        {"drift.preset", str, "nonstationarity preset — none, decay, shift, or mix", ""},
}

// value turns a flag's text into JSON. Numbers accept what flag.Int and
// flag.Float64 accept; a non-integer stays as typed when that is JSON and
// gains an exponent otherwise, so an integer field still refuses it.
func (k kind) value(text string) (json.RawMessage, error) {
	switch k {
	case num:
		if i, err := strconv.ParseInt(text, 0, 64); err == nil {
			return strconv.AppendInt(nil, i, 10), nil
		}
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, err
		}
		if json.Valid([]byte(text)) {
			return json.RawMessage(text), nil
		}
		return json.RawMessage(strconv.FormatFloat(f, 'e', -1, 64)), nil // NaN and Inf are not JSON
	case boolean:
		b, err := strconv.ParseBool(text)
		if err != nil {
			return nil, err
		}
		return strconv.AppendBool(nil, b), nil
	}
	return json.Marshal(text)
}

// apply writes the pinned field, then the flag's own.
func (o override) apply(s scenario.Spec, v json.RawMessage) (scenario.Spec, error) {
	if path, pinned, ok := strings.Cut(o.pin, "="); ok {
		var err error
		if s, err = s.Set(path, json.RawMessage(pinned)); err != nil {
			return s, err
		}
	}
	return s.Set(o.path, v)
}

// parseCLI maps the command line onto a scenario spec. The base spec comes
// from -scenario (a registered name or a JSON file; default: the all-unset
// spec, whose WithDefaults resolution is exactly the historical flag
// defaults). Every other spec flag is an override: a row of the overrides
// table, applied through scenario.Spec.Set only when given on the command
// line — flag.Visit, in its lexicographic order, so -engine wins over
// -dist-workers — so explicit zeros override too, and anything not
// mentioned rides on the spec. A bad value fails at flag parse, because it
// is tried on an empty spec there.
func parseCLI(args []string) (*cliConfig, error) {
	cli := &cliConfig{}
	fs := flag.NewFlagSet("puffer-daily", flag.ContinueOnError)

	scenarioArg := fs.String("scenario", "", "base scenario: a registered name (see -list-scenarios) or a spec .json file (default: the built-in defaults)")
	fs.BoolVar(&cli.list, "list-scenarios", false, "list the registered scenarios and exit")
	fs.BoolVar(&cli.jsonOut, "json", false, "with -list-scenarios: emit JSON (name, notes, spec hash, guard hash)")
	fs.BoolVar(&cli.dump, "dump-scenario", false, "print the effective fully-defaulted spec as canonical JSON and exit (commit it, edit it, re-run it)")
	fs.IntVar(&cli.workers, "workers", 0, "parallel shard workers (goroutines; 0 = GOMAXPROCS); never changes results")
	fs.DurationVar(&cli.distTimeout, "dist-timeout", 0, "dist engine per-shard hang deadline (duration; 0 = none); never changes results")
	fs.StringVar(&cli.checkpoint, "checkpoint", "", "checkpoint directory (path; empty = no checkpointing)")
	fs.BoolVar(&cli.quiet, "q", false, "suppress progress logging")
	cli.obs.Register(fs)
	fs.StringVar(&cli.obsEvents, "obs-events", "", "append the structured run-progress event stream (JSONL) to this file (path; empty = off)")

	given := map[string]json.RawMessage{}
	for name, o := range overrides {
		set := func(text string) error {
			v, err := o.kind.value(text)
			if err != nil {
				return err
			}
			if _, err := o.apply(scenario.Spec{}, v); err != nil {
				return err
			}
			given[name] = v
			return nil
		}
		if o.kind == boolean {
			fs.BoolFunc(name, "override: "+o.usage, set)
		} else {
			fs.Func(name, "override: "+o.usage, set)
		}
	}

	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	spec, err := scenario.Resolve(*scenarioArg)
	if err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) {
		if o, ok := overrides[f.Name]; ok && err == nil {
			spec, err = o.apply(spec, given[f.Name])
		}
	})
	if err != nil {
		return nil, err
	}
	cli.spec = spec
	return cli, nil
}
