// Package core implements Fugu, the paper's contribution (§4): a
// Transmission Time Predictor (TTP) — one small fully-connected network per
// horizon step that maps (recent chunk sizes and transmission times,
// sender-side tcp_info statistics, and a proposed chunk size) to a
// probability distribution over the chunk's transmission time — driving the
// stochastic MPC controller in the abr package. Training is supervised, on
// telemetry from the deployment itself ("in situ"), with daily retraining
// over a sliding window (§4.3); the runner package turns that sentence into
// a loop.
//
// The package also provides every ablation variant from the paper's
// Figure 7: a point-estimate TTP, a throughput predictor that ignores the
// proposed size, a linear model, a TTP without tcp_info inputs, and a
// short-history TTP.
//
// Main entry points:
//
//   - TTP / NewTTP: the per-horizon-step networks (DefaultHorizon 5,
//     DefaultHidden 64-64); Clone for warm starts, SaveFile/LoadFile for
//     model rotation and checkpoints (Load rejects a structurally
//     inconsistent model: every decoded net goes through nn's Pack).
//   - NewFugu / NewFuguNamed: wrap a trained TTP in the abr.MPC controller
//     — the deployable scheme (the point-estimate arm is abr.NewMPC over
//     NewPredictor(t, ModePointEstimate)).
//   - Predictor / NewPredictor: adapts a TTP to abr.Predictor; assembles
//     one feature matrix per horizon step (FeatureConfig.AssembleBatch) so
//     the MPC's distribution fill is one batched network pass per step.
//   - Dataset / ChunkObs / StreamObs: training telemetry (gob Save/Load);
//     Train / TrainConfig / TrainResult: recency-weighted supervised
//     training; EvaluateTransTimeMode: held-out scoring.
//   - Variant / AllVariants / NewVariantTTP: the Figure 7 ablations.
package core
