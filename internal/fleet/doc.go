// Package fleet is the concurrent serving engine: a discrete-event,
// virtual-time multiplexer that runs hundreds of interleaved viewer
// sessions against a shared clock, the way the paper's platform serves many
// concurrent streams rather than one at a time.
//
// Sessions arrive by a Poisson process (randomized to schemes at arrival,
// as on Puffer), run as parked goroutines that yield at every ABR decision,
// and are advanced tick by tick from a calendar event queue. All decisions
// due within one virtual tick stage their feature rows into a central
// InferenceService, which executes each horizon net's forward pass as one
// cross-session batch over a packed (SIMD) snapshot of the model —
// amortizing the MPC's dominant cost across concurrent viewers instead of
// within a single decision.
//
// How a decision is split around that shared flush is known to one type,
// Staged (Prepare → someone's Flush → Finish, plus the spans and the
// latency histogram that describe it). A fleet session holds one and parks
// between the two halves; a connection handler of the wall-clock serving
// layer (internal/serve) holds one and waits on its batcher instead.
//
// Determinism contract: a session's outcome depends only on (trial config,
// session id) — sessions share no state, the batched kernels are bitwise
// identical row for row regardless of batch composition, and results fold
// into the same shard-ordered accumulators as the session engine
// (experiment.Config.RunSharded) — so RunTrial is byte-identical to it at
// the same seeds, for any Tick, Workers, or arrival process. Entry points:
// RunTrial, DayEngine, which plugs it into the daily loop, and — for a
// caller that brings its own clock — NewStaged with NewInferenceService.
package fleet
