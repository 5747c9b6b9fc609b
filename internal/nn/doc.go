// Package nn is a small, dependency-free neural-network library sufficient
// for the paper's two learned components: the Fugu Transmission Time
// Predictor (a per-horizon-step classifier over transmission-time bins) and
// the Pensieve policy network. It provides fully-connected layers with ReLU
// activations, a softmax/cross-entropy classification step and a
// policy-gradient step, SGD and Adam optimizers, per-sample weighting (the
// paper's recency-weighted training), and gob serialization.
//
// Inference has one entry point: MLP.Packed returns the network's packed
// snapshot (PackedMLP: transposed weights), built on first use, shared by
// every caller and dropped by every parameter write in this package
// (Optimizer.Step, Pack). The TTP predictor, the fleet and serve inference
// service, the evaluation sweeps and the Pensieve agent all run its
// ForwardBatchInto / PredictDistBatch with a BatchWorkspace of their own.
// On amd64 with AVX2/AVX-512 the snapshot runs hand-written vector kernels
// that keep every output's ascending-input accumulation and separate
// multiply/add roundings (no FMA); elsewhere it falls back to the portable
// batched kernel (MLP.ForwardBatchInto: B samples per call over flat
// row-major activation matrices, register-blocked). The two are bitwise
// identical row for row. The fallback is a fork the platform selects, and
// it earns its place: without SIMD the register-blocked kernel serves a
// 10-row batch of the 22-64-64-21 TTP in about 27 µs where the packed
// layout's portable affineRowT body takes 84 µs (re-measured when the
// scalar path went: 23-28 µs against 43-48 µs). Outside that fallback the
// portable kernel is the differential tests' oracle, not a path to call;
// there is no one-sample forward pass. The cache is why MLP's exported
// fields are read-only outside this package: a weight written from
// elsewhere is not seen by Packed.
//
// Training keeps the same discipline. A Trainer's gradients live in one slab
// laid out like the parameter slab (W[0] B[0] W[1] B[1] ...; gradW/gradB are
// views) and an optimizer's moments in slabs of that shape, so
// Optimizer.Step is one elementwise pass. A training step has one shape
// for both losses: Trainer.forward runs the minibatch through the net
// keeping every layer's pre-activations, a loss fills the output layer's
// delta rows — TrainClassBatch weighted cross-entropy, PolicyGradStep
// advantage·(p − onehot) plus the entropy term — Trainer.backward turns
// them into the gradient slab, and the optimizer steps. The step is built
// from four primitives, each an assembly body on amd64/AVX2 and a portable
// body (affine.go) that other platforms run and the tests hold the assembly
// to: affineRowT — dst[o] = bias[o] + Σ_i wt[i*nOut+o]·x[i*xStride] — is
// every sum of the step (forward row, weight-gradient row over a strided
// delta column, bias gradient over all-ones inputs, propagated delta);
// reluCopy and maskNonPos are the ReLU and its backward mask; adamStep is
// Adam's update (256-bit only: its three divides and square root per
// element retire no faster on wider vectors). Every sum runs in ascending
// index order from its bias or +0 and every operation rounds on its own (no
// FMA, no reciprocal), so gradients, losses and saved model bytes equal the
// one-sample-at-a-time backprop's — which lives beside the tests as their
// oracle — on any vector width.
//
// Two more primitives under the same discipline serve the model-predictive
// planner in internal/abr, which calls each once per (horizon step, rung) and
// gets the looping over outcomes or rungs inside:
//
//   - ShiftedAccum(dst, src, p, lo, off): for each k in ascending order with
//     p[k] != 0 (±0 skip, NaN runs), dst[i] += p[k]·src[i+off[k]] for
//     lo[k] <= i < len(dst) — an expectation over outcomes of a value row
//     read off[k] bins away. One multiply and one add per term, every element
//     taking its terms in ascending k. Windows are checked for every k with
//     lo[k] < len(dst) whatever p[k] is.
//   - MaxPlane(dst, base, c, stride): dst[i] = max over q < len(c) of
//     c[q] + base[q*stride+i], taken as "start at q = 0, replace when v >
//     dst[i]": the first of equals stays (and +0 against -0), a NaN candidate
//     never replaces, a NaN at q = 0 stays.
//
// Each has a portable body (shiftedAccumGo, maxPlaneGo in affine.go: the
// oracle, and what other platforms run) and a 256-bit body with separate
// VMULPD/VADDPD and VMAXPD in "candidate first" operand order; the tests hold
// the assembly to the portable body by name, and internal/abr reruns the
// whole planner with the SIMD gates off and compares its value planes bit
// for bit.
//
// Main entry points:
//
//   - MLP / NewMLP: the network; Packed for inference, Save/Load (gob) for
//     serialization, Pack to validate and re-home a model decoded some
//     other way. Parameters live in one contiguous slab, which is what
//     the batched kernel exploits.
//   - Trainer with an Optimizer (SGD, Adam): TrainClassBatch, minibatch
//     supervised training with optional per-sample weights, and
//     PolicyGradStep, the REINFORCE step.
//   - Softmax, ArgMax, Entropy: the numeric utilities shared by the
//     predictors.
//   - ShiftedAccum, MaxPlane: the planner's two vector passes (above).
//
// Everything is deterministic given a seeded *rand.Rand. All math is
// float64.
package nn
