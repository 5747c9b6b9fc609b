// Package runner implements the paper's defining mechanism as a first-class
// subsystem: the in-situ continual-experiment loop. Each simulated day runs
// a randomized trial with the currently-deployed schemes while telemetry is
// recorded; a nightly phase warm-start-retrains the TTP on a sliding window
// of recent days and atomically rotates the new model into the Fugu arm for
// the next day (§4.3's "retrained every day, on data collected from its own
// deployment").
//
// The loop runs days, not engines. How a day's sessions execute sits behind
// one seam, DayEngine (Config.Engine): given the day's trial, the deployed
// model, the shard size and the worker bound, an engine returns the day's
// merged accumulator, its telemetry, and optionally a serving record. The
// zero value is the session engine, experiment.Config.RunSharded: a worker
// pool folds each shard's sessions into private mergeable accumulators
// (experiment.TrialAcc) that merge in shard order, so at most one
// SessionResult per worker is ever materialized and bootstrap confidence
// intervals are computed once on the merged state. The fleet and dist
// engines implement the seam from their own packages and are selected in
// internal/scenario; this package imports neither, and keeps only the loop,
// nightly training, checkpoints and the window.
//
// Per-day state (model, telemetry, accumulator, stats) checkpoints
// atomically, so a killed run resumes at the last completed day with
// byte-identical results. The checkpoint manifest is guarded by one
// hash: the scenario spec's guard hash (Config.SpecHash, set by
// internal/scenario's Compile) for spec-driven runs, or a fallback hash of
// the runner's own result-shaping fields for directly constructed Configs;
// mismatched resumes are rejected with both specs in the error, and
// pre-scenario field-list manifests get an explicit migration message.
//
// The loop threads the day index into the environment's path sampler: when
// Config.Env.Paths is a netem.DaySampler (e.g. a netem.DriftingSampler),
// day d's sessions draw from day d's distribution. That is the
// nonstationary regime where this package earns its keep — the staleness
// ablation (Retrain=false) separates from the retrained arm and the gap
// widens day over day, where a stationary deployment shows the paper's
// "stale model ties" result.
//
// Main entry points:
//
//   - Run with a Config: execute (or resume, via Config.CheckpointDir) a
//     continual experiment; Result / DayStats carry per-day and pooled
//     analyses, the final model, and the sliding-window telemetry.
//   - DayStats.Scheme: read one arm's row out of a day, e.g. to compare
//     seed-paired retrained and frozen runs per day.
//   - ModelSlot: the atomic model-rotation point between the nightly phase
//     and session factories.
//   - BootstrapSchemes / DeploySchemes: the day-0 classical mixture and
//     the steady-state Fugu+BBA mixture.
//   - DayEngine / Config.Engine: the execution engine for each day's
//     trial (nil: the per-session fold). fleet.DayEngine multiplexes
//     sessions in virtual time with cross-session batched inference and
//     records a FleetDayStats per day; results are byte-identical across
//     engines.
package runner
