// Package pensieve reproduces the Pensieve baseline (Mao et al., the
// paper's principal learned-ABR comparison): a neural-network policy that
// directly picks the next chunk's bitrate, trained with policy-gradient
// reinforcement learning (REINFORCE with a learned value baseline and an
// annealed entropy bonus) in a chunk-level simulator over emulator-style
// (FCC-like) traces — exactly the training regime whose deployment gap the
// paper measures (§5.2, Figure 11).
//
// As in the paper's deployment (§3.3), the policy optimizes the
// bitrate-based QoE (+bitrate, -stalls, -Δbitrate); it cannot be made
// SSIM-aware without surgery, which is part of the point.
//
// Main entry points:
//
//   - Train with a TrainConfig: policy-gradient training in the built-in
//     chunk-level simulator — rollouts on the policy's packed snapshot,
//     one nn.Trainer.PolicyGradStep per episode on the batched
//     forward/backward the TTP's trainer runs; TrainResult reports the
//     reward curve.
//   - Agent / NewAgent: the deployable abr.Algorithm; Agent.Policy
//     extracts the trained network for sharing across per-session
//     instances.
//   - NewUntrainedPolicy: the bare StateDim → NumActions network, for
//     tests and custom training loops.
package pensieve
