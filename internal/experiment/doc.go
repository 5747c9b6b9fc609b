// Package experiment implements the Puffer study itself (§2-3): the
// per-stream simulation loop (ABR decision → TCP transfer → playback buffer
// → viewer behavior), session structure with channel changes over one TCP
// connection, blinded randomized assignment of sessions to schemes,
// CONSORT exclusion accounting (Figure A1), telemetry collection for TTP
// training, and the per-scheme analysis with bootstrap confidence intervals
// (Figures 1 and 8).
//
// Sessions are deterministic given (Config, session id): each session's own
// RNG makes the blinded arm assignment as its first draw and then drives
// the whole simulation, so any partition of ids across workers or shards
// reproduces identical results. The session's experiment day is threaded to
// the path sampler (netem.SampleForDay), which is how a drifting
// environment gives each day its own path distribution.
//
// Main entry points:
//
//   - Env: the world a session runs in (paths, channels, ladder, viewer
//     model); DefaultEnv is the deployment, EmulationEnv the §5.2 testbed.
//   - Config.RunSharded: a randomized controlled trial over Schemes,
//     sharded across a worker pool, returning the merged TrialAcc — the one
//     way a trial runs. Config.RunOne / FoldShard / FoldShards are its
//     session and shard units for engines that schedule sessions themselves.
//   - SchemeAcc / TrialAcc: mergeable accumulators — fold sessions in,
//     merge shards in order, bootstrap once on the merged state.
//     TrialAcc.Analyze yields the SchemeStats rows (bootstrap CIs and the
//     Figure A1 CONSORT counters); AnalysisFilter selects the Figure 8
//     slow-path panel; the per-scheme series (Points, Duration) feed the
//     CCDF and power figures.
//   - Recorder / DatasetCollector / CollectDataset: the telemetry hook
//     that gathers TTP training data from a trial.
//   - RunSessionHooked: the bare session loop; DecideHook / RunOneHooked:
//     the decision interception point the fleet engine parks sessions at
//     (a nil hook asks the algorithm directly, byte-identically).
package experiment
