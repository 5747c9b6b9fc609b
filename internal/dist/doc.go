// Package dist distributes the daily loop's randomized trial across worker
// processes: a coordinator (a Pool, which scenario.Run puts behind the
// runner's DayEngine seam for engine.kind "dist") partitions each day's
// sessions into the existing shard units, sends workers the canonical spec
// and the day's model bytes over a stdio protocol of internal/wire frames
// with fixed-layout payloads, assigns shards from one locked queue, and
// merges the returned accumulator blobs in shard order — byte-identical to
// the single-process engine at the same seeds.
//
// The paper's result rests on scale: Puffer's continual-learning loop
// ingests a real deployment's stream of data and retrains nightly (§4-5).
// This package is what lets a paper-scale run (hundreds of days x 1e5
// sessions/day) finish overnight on one many-core box, without giving up
// the platform's determinism contract.
//
// Main entry points:
//
//   - Pool / PoolConfig / (*Pool).RunDay: the coordinator side — launch
//     local subprocess workers (the calling binary re-exec'd, the repo's
//     one self-re-exec harness), drive assign → result on each worker in
//     turn, reassign on failure, merge.
//   - Serve / TrialFactory / DayTrial: the worker side — a frame loop over
//     stdin/stdout that compiles the broadcast spec into each day's trial
//     and folds assigned shards through experiment.FoldShard.
//   - EncodeShard / DecodeShard: the versioned wire envelope for one
//     shard's (TrialAcc, Dataset) pair; version or shape mismatches are
//     rejected loudly rather than folded into a wrong answer.
//   - ParseFault / EnvFault: the PUFFER_DIST_FAULT test hook that makes a
//     worker exit (or hang) mid-shard on a shard's first attempt, proving
//     reassignment keeps results byte-identical.
//
// Robustness is part of the subsystem, not a follow-on: a worker that dies
// or hangs (per-shard deadline) is killed and replaced, and its assigned
// shard is reassigned — safe because a shard is a pure function of
// (spec, seed, day, shard). Fleet health is observable live through the
// dist_* counters/gauges and the worker lifecycle events.
package dist
