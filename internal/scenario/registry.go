package scenario

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
)

// The registry of named built-in scenarios: the experiments the platform
// knows how to run by name (`puffer-daily -scenario <name>`), each a plain
// Spec. Registered specs are starting points — CLI flags and callers
// override fields freely, and -dump-scenario prints any of them as a
// fully-defaulted JSON file to commit or edit.

var (
	regMu sync.Mutex
	reg   = map[string]Spec{}
)

// Register adds a named scenario. The name is stamped onto the spec; a
// duplicate name panics (registration is an init-time act).
func Register(name, notes string, spec Spec) {
	regMu.Lock()
	defer regMu.Unlock()
	if name == "" {
		panic("scenario: Register with empty name")
	}
	if _, dup := reg[name]; dup {
		panic(fmt.Sprintf("scenario: duplicate registration of %q", name))
	}
	spec.Name, spec.Notes = name, notes
	reg[name] = spec.Clone()
}

// Lookup returns the named scenario as a deep copy, so callers mutating
// the result (or what its pointer fields point at) never alter the
// registry.
func Lookup(name string) (Spec, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	s, ok := reg[name]
	if !ok {
		return Spec{}, false
	}
	return s.Clone(), true
}

// Resolve maps a CLI's -scenario argument to its base spec: empty is the
// all-unset spec (pure defaults), a .json path (or any existing file) loads
// a spec file, anything else must be a registered name.
func Resolve(arg string) (Spec, error) {
	if arg == "" {
		return Spec{}, nil
	}
	st, err := os.Stat(arg)
	if strings.HasSuffix(arg, ".json") || (err == nil && !st.IsDir()) {
		return ParseFile(arg)
	}
	if spec, ok := Lookup(arg); ok {
		return spec, nil
	}
	return Spec{}, fmt.Errorf("unknown scenario %q: not a registered name and no such file", arg)
}

// Names lists the registered scenarios in sorted order.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register("stationary",
		"the paper's deployment regime: a stationary path population, nightly retraining, and the frozen-model staleness ablation (which roughly ties, as the paper found)",
		New())

	Register("drift-shift",
		"population composition shifts under the deployed model (slow-path share grows, deep outages ramp): the staleness gap separates and widens day over day",
		New(Days(4), Drift("shift")))

	Register("drift-decay",
		"the whole population's capacity decays 40%/day toward a floor: the distribution slides out from under the frozen model",
		New(Days(4), Drift("decay")))

	Register("drift-mix",
		"the population migrates to a congested family over a 3-day ramp: by the end every session comes from paths the day-0 model never saw",
		New(Days(4), Drift("mix")))

	Register("fleet-burst",
		"the serving side under flash crowds: the fleet engine multiplexes bursts of 50 simultaneous arrivals, batching TTP inference across sessions (results stay byte-identical to the session engine)",
		New(Days(2), Sessions(300), Engine("fleet"), Bursts(50, 20), Ablation(false)))

	Register("emulation-gap",
		"the daily loop inside the §5.2 emulation testbed (FCC-like paths, looping clip): train and serve in emulation to compare against the in-situ runs",
		New(World("emulation")))

	Register("nightly-drift",
		"the paper-scale nonstationary run CI executes nightly: 14 days x 800 sessions under the shift preset on the fleet engine, with the frozen-model ablation",
		New(Days(14), Sessions(800), Window(7), Drift("shift"), Engine("fleet"), ArrivalRate(2)))
}
