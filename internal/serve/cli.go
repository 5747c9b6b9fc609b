package serve

import "puffer/internal/scenario"

// ResolveSpec is the serving CLIs' shared spec pipeline: resolve the
// -scenario argument (a registered name or a spec file), apply the
// -sessions / -arrival-rate overrides, default, validate, and apply the
// PUFFER_SCENARIO_SCALE smoke scaling. puffer-serve and puffer-load both
// go through this one function, so with the same arguments and environment
// their plan hashes can only agree — or fail loudly in the handshake.
func ResolveSpec(arg string, sessions int, arrivalRate float64) (scenario.Spec, error) {
	spec, err := scenario.Resolve(arg)
	if err != nil {
		return scenario.Spec{}, err
	}
	if sessions > 0 {
		spec.Daily.Sessions = sessions
	}
	if arrivalRate > 0 {
		spec.Engine.Arrival = scenario.ArrivalSpec{Process: "poisson", Rate: arrivalRate}
	}
	spec = spec.WithDefaults()
	if err := spec.Validate(); err != nil {
		return scenario.Spec{}, err
	}
	return scenario.ScaleFromEnv(spec), nil
}
