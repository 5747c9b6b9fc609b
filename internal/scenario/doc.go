// Package scenario is the platform's front door: one declarative,
// serializable Spec that fully describes any experiment the system can run
// — environment (in-situ or emulation, path family), scheme roster via the
// daily loop, days/sessions/window/retraining, drift schedule, execution
// engine and arrival process, seed, and sharding.
//
// The paper's contribution is a *platform* for randomized ABR experiments
// in situ, not any one algorithm; what lets a platform scale to "as many
// scenarios as you can imagine" is that an experiment is data, not code.
// A Spec round-trips through strict JSON (unknown fields rejected,
// explicit zero distinguished from unset via pointers), resolves defaults
// in exactly one place (WithDefaults), validates with actionable errors,
// and has a canonical content hash (Hash) whose guard projection
// (GuardHash) is the checkpoint-manifest guard: resuming a checkpoint
// under a different experiment is refused by comparing spec hashes, not
// ad-hoc field lists. Set writes one field by its dotted JSON path
// ("daily.window", "engine.arrival.rate") through the same strict parser;
// puffer-daily's override flags and a sweep's axes both go through it.
//
// Entry points: Compile lowers a Spec into the result-shaping
// runner.Config; Run is the one orchestration path (main run plus the
// frozen-model staleness companion) shared by cmd/puffer-daily, the nightly
// workflow, the figures suite, and library callers. Run is also the one
// place engine.kind becomes code: it lowers the string to a
// runner.DayEngine value (nil for "session", fleet.DayEngine, or a closure
// over a dist.Pool it builds from RunOptions and reaps on every return
// path), so a Config compiled by hand runs on the session engine — the
// engines are byte-identical, so that never changes a result. Lookup/Names expose the registry
// of named built-in scenarios ("stationary", "drift-shift", "fleet-burst",
// ...), and New with functional options (Days, Drift, Engine, ...) builds
// specs in Go.
package scenario
