// Package abr defines the adaptive-bitrate framework shared by every scheme
// in the study: the per-decision Observation a server-side ABR algorithm
// sees, the SSIM-based QoE objective from the paper's Equation 1, the
// transmission-time discretization used by stochastic MPC and the TTP, and
// the classical algorithms the randomized trial compares Fugu against.
//
// The centerpiece is MPC, the model-predictive controller of §4.2: given a
// Predictor that supplies a transmission-time distribution for each
// candidate chunk size, it maximizes expected QoE over a receding horizon
// by value iteration over (step, buffer, previous quality). The planner is
// batched and factored: the MPC fills every candidate's distribution for a
// horizon step in one Predictor call, hoists the prediction expectation out
// of the previous-quality dimension, suffix-sums the expected-stall base
// term, and — because a non-stalling outcome moves every buffer bin by the
// same offset — computes the continuation term as a shifted accumulate over
// contiguous value rows and the maximum over rungs as one vector pass
// (nn.ShiftedAccum, nn.MaxPlane). The outcome tables behind that depend on
// player.BufferCap and the grid step bufStep (0.25 s) alone, both constants,
// so they are built once per process. The seed planner, a memoized forward
// recursion over a per-size fill, lives in this package's tests as the
// differential oracle for all of that.
//
// Main entry points:
//
//   - Algorithm: the decision interface (Choose over an Observation);
//     Observation / ChunkRecord: the server-side state.
//   - MPC with NewMPC / core.NewFugu: the stochastic controller over a
//     planHorizon (5) chunk lookahead; Predictor is the prediction plug
//     point; ChunkQoE is Equation 1 with the paper's fixed qoeLambda = 1
//     and qoeMu = 100.
//   - NewMPCHM / NewRobustMPCHM: MPC over the harmonic-mean throughput
//     predictor (the paper's MPC-HM / RobustMPC-HM arms);
//     HarmonicMeanPredictor for custom controllers.
//   - NewBBA: buffer-based control (the "simple" scheme); NewRateBased and
//     NewBOLA: related-work baselines; Catalog lists every registered
//     scheme.
//   - NewExplorer: epsilon-uniform rung exploration wrapped around any
//     scheme, used when collecting TTP training data.
//   - DeferredAlgorithm: the split decision protocol (PrepareChoose /
//     FinishChoose) the fleet engine parks sessions around so an external
//     service can batch prediction across concurrent sessions; MPC and
//     Explorer implement it with Choose ≡ Prepare;Finish guaranteed.
//   - BinIndex / BinValue / NumBins: the transmission-time discretization
//     shared with the TTP.
package abr
