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
//   - Run with a Config: a randomized controlled trial over Schemes;
//     Config.RunOne simulates a single session for shard-level callers.
//   - Analyze / SchemeStats: per-scheme statistics with bootstrap CIs;
//     AnalysisFilter selects the Figure 8 slow-path panel; Consort is the
//     Figure A1 accounting; EligibleStreams / SessionDurations feed the
//     CCDF figures.
//   - SchemeAcc / TrialAcc: mergeable accumulators — fold sessions in,
//     merge shards in order, bootstrap once on the merged state; Analyze
//     is a thin wrapper over them.
//   - Recorder / DatasetCollector / CollectDataset: the telemetry hook
//     that gathers TTP training data from a trial.
//   - RunSessionHooked: the bare session loop; DecideHook / RunOneHooked:
//     the decision interception point the fleet engine parks sessions at
//     (a nil hook asks the algorithm directly, byte-identically).
package experiment
