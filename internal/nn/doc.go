// Package nn is a small, dependency-free neural-network library sufficient
// for the paper's two learned components: the Fugu Transmission Time
// Predictor (a per-horizon-step classifier over transmission-time bins) and
// the Pensieve policy network. It provides fully-connected layers with ReLU
// activations, a softmax/cross-entropy classification step and a
// policy-gradient step, the Adam optimizer, per-sample weighting (the
// paper's recency-weighted training), and a fixed-layout codec (AppendTo,
// Decode).
//
// Inference has one entry point and one forward pass: MLP.Packed returns
// the network's packed snapshot (PackedMLP: transposed weights), built on
// first use, shared by every caller and dropped by every parameter write in
// this package (Optimizer.Step). The TTP predictor, the fleet and serve
// inference service and the evaluation sweeps run its PredictDistBatch, and
// the Pensieve agent its ForwardInto (one sample), each with a
// BatchWorkspace of its own; both are the one batched forward loop. Each
// row of each layer is one affineRowT (below), the trainer's own primitive:
// AVX2/AVX-512 assembly on amd64 where the CPU has it, the portable
// affineRowTGo everywhere else, with the same bits on both. There is no
// second forward kernel; the tests' oracle is a plain dot product over W
// and B in the test files. The cache
// is why MLP's exported fields are read-only outside this package: a weight
// written from elsewhere is not seen by Packed.
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
// About half of a hidden layer's units are dead on a given sample (z <= 0),
// and five of a step's sums multiply by exactly those zeros: the forward
// rows into every layer after the first (x = relu(z) = +0), the hidden
// layers' weight-gradient rows (x = a delta column, +0 on the samples where
// that unit is masked) and the deltas propagated back from them (x = a
// masked delta row). Those run a fifth primitive, affineRowTLive: affineRowT
// over only the inputs whose bit is set in a mask — each block walks the set
// bits in ascending order with the same multiply and add per term. Two
// more 256-bit passes feed it: liveMask, one compare pass over each hidden
// layer's z (bit set where !(z <= 0)), whose masks are bit-transposed per
// unit for the gradient rows, and allFinite for the certificate below.
// Leaving a term out is exact when it is w·(±0) = ±0 — w finite — and the
// accumulator cannot be -0, because then acc + (±0) is acc bit for bit;
// round-to-nearest gives -0 from an add only for (-0) + (-0), so an
// accumulator that starts at +0 (gradients, propagated deltas) or at a bias
// that is not -0 never holds -0. The trainer certifies both once per layer
// per step — the matrix the zeros meet (W, or the layer's input matrix for
// gradient rows) all finite by allFinite, and no bias -0 or NaN (a
// signalling NaN would be quieted by the first add) — and any sum whose
// certificate fails runs all its terms through affineRowT. The counters
// nn_train_terms_total and nn_train_terms_skipped_total say what share a
// retrain left out.
//
// "Rounds on its own" holds on every GOARCH only because the Go code says
// so: the compiler may fuse a*b+c into one FMA instruction (arm64 does;
// amd64 does not, even at GOAMD64=v3), and an explicit conversion,
// float64(a*b), is the spec's way to forbid it. Every product in this
// package's non-test Go code (and in the tests' bitwise oracles) that feeds
// an add or subtract is written that way, and `make cross` fails on any
// fused op in the arm64 listing of this package or of telemetry, stats,
// sweep, experiment or player. The rest of the tree is not held to this:
// abr, media, netem, pensieve and tcpsim (and a few sites in figures and
// obs) still fuse on arm64, so their results there may differ in the last
// bit from amd64's (bits across GOARCH are ROADMAP item 20).
//
// Softmax has a 256-bit body too (softmaxAVX2). Its sums keep the rule above
// — the normalising sum runs in index order from +0, one rounding per add —
// and its exponentials are math.Exp's own: Go's amd64 math.Exp is a
// SIMD-designed sequence (Shibata's, ISC'10, in $GOROOT/src/math/exp_amd64.s)
// that fuses its reduction and polynomial steps when the CPU has FMA, and the
// body runs those operations lane by lane, fused exactly where that file
// fuses. The SIMD gate requires FMA, so wherever the body runs math.Exp takes
// the same path and softmaxGo, the scalar body, gives the same bits. Rows
// with a NaN, an infinity or a spread past 708 (where math.Exp would leave
// its normal range) go to softmaxGo. Off FMA hosts math.Exp itself differs
// in the last bit (ROADMAP item 14), which no gate in this package changes.
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
//   - MLP / NewMLP: the network; Packed for inference, AppendTo/Decode
//     for its fixed layout on internal/wire (the widths, then the slab).
//     Parameters live in one contiguous slab, which is what the
//     optimizer's one elementwise pass exploits.
//   - Trainer with an Optimizer (Adam): TrainClassBatch, minibatch
//     supervised training with optional per-sample weights, and
//     PolicyGradStep, the REINFORCE step. Both skip dead units' exact-zero
//     terms (above).
//   - Softmax, ArgMax, Entropy: the numeric utilities shared by the
//     predictors.
//   - ShiftedAccum, MaxPlane: the planner's two vector passes (above).
//
// Everything is deterministic given a seeded *rand.Rand. All math is
// float64.
package nn
