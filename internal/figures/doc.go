// Package figures regenerates every table and figure in the paper's
// evaluation: each FigN/SecNN method runs the corresponding experiment on
// the simulated substrate and writes the same rows/series the paper
// reports. Absolute numbers differ (the substrate is a simulator, not the
// authors' deployment); the shapes — who wins, by roughly what factor,
// where the crossovers fall — are the reproduction targets, recorded in
// EXPERIMENTS.md-style notes in ROADMAP.md.
//
// Main entry points:
//
//   - Suite / NewSuite: builds the shared state once — collects telemetry,
//     trains the in-situ TTP and the emulation TTP through the continual
//     runner's two-day loop (figures and the daily loop share one engine),
//     and trains the Pensieve policy. Individual figures then run their
//     experiments on demand and cache what they share.
//   - Primary: the primary randomized trial, run once through
//     experiment.Config.RunSharded and kept as its merged TrialAcc; every
//     trial a figure runs goes through the same call.
//   - Fig1/Fig4/Fig8/Fig9/Fig10/FigA1/Sec34: the primary randomized-trial
//     readouts, read off the accumulator (TrialAcc.Analyze for CIs and
//     CONSORT counters, the per-arm Duration series for Fig10); Fig8's
//     slow-path panel reruns the trial with the SlowPaths filter. Sec53:
//     the power analysis, resampling every arm's stream points pooled in
//     scheme-name order. Fig2/Fig3/Fig5: the substrate characterizations.
//     Fig7: the TTP ablations. Fig11: emulation-vs-deployment. Sec46: the
//     stationary staleness check.
//   - FigDrift: the nonstationary extension of Sec46 — the staleness
//     ablation under a drifting path population, where the
//     frozen-vs-retrained stall gap widens day over day instead of tying.
//
// The root package's benchmark harness (go test -bench=Fig) wraps each
// method and reports its headline quantities as benchmark metrics.
package figures
