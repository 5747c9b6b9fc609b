package nn

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"puffer/internal/obs"
)

// Training-step metrics (write-only; see the obs package contract): the
// multiply-adds a step's sums hold with every term counted, and how many of
// them the step left out as exact zeros (Trainer.forward). A retrain that
// slows because fewer hidden units died shows as a falling skipped share.
var (
	trainTermsTotal   = obs.Default.Counter("nn_train_terms_total")
	trainTermsSkipped = obs.Default.Counter("nn_train_terms_skipped_total")
)

// Optimizer applies a gradient step to a network's parameters. Gradients are
// mean-gradients over the batch the caller accumulated.
type Optimizer interface {
	// Step updates net in place given grad, a slab laid out like net's
	// parameter slab (W[0] B[0] W[1] B[1] ...; NewTrainer builds both), and
	// drops net's cached packed snapshot, which the write made stale (slab
	// and cache are unexported, so implementations live in this package).
	Step(net *MLP, grad []float64)
}

// checkSlab panics unless grad parallels net's parameter slab (NewTrainer
// sets both up).
func checkSlab(net *MLP, grad []float64) {
	if len(net.flat) == 0 || len(net.flat) != len(grad) {
		panic(fmt.Sprintf("nn: Optimizer.Step: %d-parameter slab vs %d gradients", len(net.flat), len(grad)))
	}
}

// Adam's hyperparameters, Kingma & Ba's defaults. They are vars so that
// 1-beta is a run-time float64 subtraction: as a constant expression it is
// exact and rounds to a different float64, which would move trained bits.
var adamBeta1, adamBeta2, adamEps = 0.9, 0.999, 1e-8

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR float64

	t    int
	m, v []float64 // first and second moment slabs
}

// Step implements Optimizer: one fused pass (adamStep) over the parameter,
// gradient and moment slabs.
func (a *Adam) Step(net *MLP, grad []float64) {
	checkSlab(net, grad)
	if a.m == nil {
		a.m, a.v = make([]float64, len(grad)), make([]float64, len(grad))
	}
	a.t++
	adamStep(net.flat, grad, a.m, a.v, &adamConsts{
		b1: adamBeta1, ob1: 1 - adamBeta1,
		b2: adamBeta2, ob2: 1 - adamBeta2,
		c1: 1 - math.Pow(adamBeta1, float64(a.t)),
		c2: 1 - math.Pow(adamBeta2, float64(a.t)),
		lr: a.LR, eps: adamEps,
	})
	net.packed.Store(nil)
}

// Trainer runs minibatch training steps: a batched forward pass, a loss that
// fills the output layer's deltas, a batched backward pass into the gradient
// slab, one optimizer step. It supports weighted samples (the paper weights
// recent days more heavily) under softmax cross-entropy, and the policy
// gradient the Pensieve arm trains with. Not safe for concurrent use.
type Trainer struct {
	Net *MLP
	Opt Optimizer

	// grad is the gradient slab, laid out like Net's parameter slab so the
	// optimizer walks both in one pass; gradW/gradB are its per-layer views.
	grad         []float64
	gradW, gradB [][]float64
	probs        []float64
	bt           *batchTrainWS
	// allTerms runs every sum over all its terms, skipping none: the
	// reference the tests hold a skipping step to.
	allTerms bool
}

// batchTrainWS holds the flat row-major matrices one batched training step
// needs: the packed input batch, per-layer pre- and post-activations from
// the forward pass, per-layer deltas for the backward pass, the transposed
// weights the forward kernel reads, the two constant vectors that turn
// affineRowT into a plain sum (a +0 "bias") and a column sum (all-ones
// "inputs"), and each hidden layer's live-unit masks. It grows to the
// largest minibatch seen and never allocates afterwards; each growth is two
// slabs (floats, masks) that every buffer is a view of.
type batchTrainWS struct {
	rows   int
	x      []float64
	zs     [][]float64 // pre-activations per layer (relu mask + logits)
	acts   [][]float64 // post-activations per layer (inputs to layer l+1)
	delta  [][]float64 // dLoss/dz per layer
	wt     [][]float64 // input-major weights, re-transposed every step
	zero   []float64   // +0 per output of the widest layer
	ones   []float64   // 1 per sample
	hidden []hiddenWS  // per hidden layer (every layer but the last)

	// terms and skipped are this step's multiply-adds with every term
	// counted and the part it left out.
	terms, skipped int64
}

// hiddenWS is one hidden layer's part in a step's dead-unit skip (see
// Trainer.forward).
type hiddenWS struct {
	// live holds one bit per (sample, unit), set where !(z <= 0): the units
	// whose ReLU output and masked delta can be non-zero. It is
	// sample-major, (width+63)/64 words a sample; liveT is its bit
	// transpose, unit-major, (rows+63)/64 words a unit.
	live, liveT []uint64
	dead        int64 // the (sample, unit) pairs with z <= 0
	finiteW     bool  // this step's W is all finite (layers > 0)
}

// carve cuts the next n elements off *slab.
func carve[T any](slab *[]T, n int) []T {
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// ensureBatchWS sizes the batched-training scratch for a rows-sample batch.
func (t *Trainer) ensureBatchWS(rows int) *batchTrainWS {
	net, bt := t.Net, t.bt
	layers := net.NumLayers()
	if bt == nil {
		views := make([][]float64, 4*layers)
		bt = &batchTrainWS{
			zs:     views[:layers:layers],
			acts:   views[layers : 2*layers : 2*layers],
			delta:  views[2*layers : 3*layers : 3*layers],
			wt:     views[3*layers:],
			hidden: make([]hiddenWS, layers-1),
		}
		n := slices.Max(net.Sizes)
		for _, w := range net.W {
			n += len(w)
		}
		slab := make([]float64, n)
		for l := range bt.wt {
			bt.wt[l] = carve(&slab, len(net.W[l]))
		}
		bt.zero = slab
		t.bt = bt
	}
	if rows > bt.rows {
		bt.rows = rows
		n, nMask := rows*(net.InputSize()+1), 0
		for l, width := range net.Sizes[1:] {
			n += 3 * rows * width
			if l < layers-1 {
				nMask += rows*((width+63)/64) + width*((rows+63)/64)
			}
		}
		slab, masks := make([]float64, n), make([]uint64, nMask)
		bt.x = carve(&slab, rows*net.InputSize())
		for l, width := range net.Sizes[1:] {
			bt.zs[l] = carve(&slab, rows*width)
			bt.acts[l] = carve(&slab, rows*width)
			bt.delta[l] = carve(&slab, rows*width)
			if l < layers-1 {
				h := &bt.hidden[l]
				h.live = carve(&masks, rows*((width+63)/64))
				h.liveT = carve(&masks, width*((rows+63)/64))
			}
		}
		bt.ones = slab
		for i := range bt.ones {
			bt.ones[i] = 1
		}
	}
	return bt
}

// NewTrainer creates a Trainer for net with the given optimizer.
func NewTrainer(net *MLP, opt Optimizer) *Trainer {
	t := &Trainer{
		Net:   net,
		Opt:   opt,
		grad:  make([]float64, len(net.flat)),
		probs: make([]float64, net.OutputSize()),
	}
	t.gradW, t.gradB = net.layerViews(t.grad)
	return t
}

// totalWeight sums a minibatch's sample weights; nil weighs every sample 1.
func totalWeight(weights []float64, n int) float64 {
	if weights == nil {
		return float64(n)
	}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	return total
}

// forward packs xs into the batch workspace and runs the minibatch through
// the net: one affine row per sample per layer over freshly transposed
// weights (they change every step; the transpose is a few thousand copies
// against hundreds of thousands of multiplies), keeping every layer's z for
// the backward mask — the last layer's is the logits — and relu(z) as the
// next layer's input.
//
// About half of a hidden layer's units are dead on a given sample (z <= 0),
// and five of a step's sums broadcast exactly those zeros: the forward rows
// into every layer after the first (x: relu(z) = +0), and in backward the
// weight-gradient rows of the hidden layers (x: a delta column, +0 on the
// samples where that unit is masked) and the deltas propagated back from
// them (x: a masked delta row). Those sums run affineRowTLive over the live
// bits of the layer's masks and leave the dead terms out, which changes no
// bit of any result when:
//
//   - the matrix the sum multiplies the zeros by is all finite, so each
//     dead term is w·(±0) = ±0 (a NaN or ±Inf weight would make it NaN);
//   - its accumulator can never be -0: round-to-nearest gives -0 from an
//     add only for (-0) + (-0), so an accumulator that starts at +0 (every
//     gradient and propagated delta) or at a bias that is not -0 never
//     holds -0, and acc + (±0) is acc bit for bit. A NaN bias is refused
//     too: were it signalling, the first add would quiet it.
//
// The step certifies both once per layer: forward checks W[l] all finite
// (for the forward rows and the propagated deltas) and no bias -0 or NaN,
// backward checks the layer's input matrix all finite (for its gradient
// rows). Any sum whose certificate fails runs all its terms through
// affineRowT.
func (t *Trainer) forward(xs [][]float64) *batchTrainWS {
	net := t.Net
	rows := len(xs)
	bt := t.ensureBatchWS(rows)
	nIn := net.InputSize()
	for s, x := range xs {
		if len(x) != nIn {
			panic(fmt.Sprintf("nn: input length %d, want %d", len(x), nIn))
		}
		copy(bt.x[s*nIn:(s+1)*nIn], x)
	}
	in := bt.x[:rows*nIn]
	last := net.NumLayers() - 1
	bt.terms, bt.skipped = 0, 0
	for l := 0; l <= last; l++ {
		nI, width := net.Sizes[l], net.Sizes[l+1]
		// forward and weight-gradient rows, bias gradient, propagated delta
		bt.terms += int64(rows) * int64(2*nI*width+width)
		if l > 0 {
			bt.terms += int64(rows) * int64(width*nI)
		}
		z := bt.zs[l][:rows*width]
		transposeInto(bt.wt[l], net.W[l], nI, width)
		finiteW := l > 0 && !t.allTerms && allFinite(net.W[l])
		if l < last {
			bt.hidden[l].finiteW = finiteW
		}
		if finiteW && biasSkips(net.B[l]) {
			below, words := &bt.hidden[l-1], (nI+63)/64
			for r := 0; r < rows; r++ {
				affineRowTLive(z[r*width:], net.B[l], in[r*nI:], bt.wt[l], below.live[r*words:], nI, width, 1)
			}
			bt.skipped += below.dead * int64(width)
		} else {
			for r := 0; r < rows; r++ {
				affineRowT(z[r*width:], net.B[l], in[r*nI:], bt.wt[l], nI, width, 1)
			}
		}
		if l == last {
			break
		}
		in = bt.acts[l][:rows*width]
		reluCopy(in, z)
		h := &bt.hidden[l]
		live := h.live[:rows*((width+63)/64)]
		liveMask(live, z, rows, width)
		h.dead = int64(rows * width)
		for _, m := range live {
			h.dead -= int64(bits.OnesCount64(m))
		}
	}
	return bt
}

// biasSkips reports whether no bias is -0 or NaN, so that a forward row
// may leave out its ±0 terms (see forward).
func biasSkips(b []float64) bool {
	for _, v := range b {
		if v != v || math.Float64bits(v) == 1<<63 {
			return false
		}
	}
	return true
}

// backward turns the output deltas a loss left in bt.delta[last] (rows ×
// OutputSize, already scaled by sample weight over batch weight) into the
// gradient slab, every element of which it assigns, so nothing is cleared
// first. Each sum is affineRowT's, from +0: gradW row o over samples (x:
// delta column o, at stride nO; weights: the layer's input matrix), gradB
// over samples (x: ones; weights: the delta matrix), and a sample's
// propagated delta over outputs (weights: W as stored) — then the ReLU mask.
// A sample whose delta row is all zero adds nothing to any of them, exactly
// as if it had been skipped. Below the output layer the gradient rows and
// propagated deltas leave out the masked units' terms where forward's
// certificates allow.
func (t *Trainer) backward(rows int) {
	net, bt := t.Net, t.bt
	last := net.NumLayers() - 1
	for l := last; l >= 0; l-- {
		nI, nO := net.Sizes[l], net.Sizes[l+1]
		layerIn := bt.x
		if l > 0 {
			layerIn = bt.acts[l-1]
		}
		layerIn = layerIn[:rows*nI]
		d := bt.delta[l][:rows*nO]
		gw := t.gradW[l]
		if l < last && !t.allTerms && allFinite(layerIn) {
			h, words := &bt.hidden[l], (rows+63)/64
			transposeBits(h.liveT, h.live, rows, nO)
			for o := 0; o < nO; o++ {
				affineRowTLive(gw[o*nI:], bt.zero, d[o:], layerIn, h.liveT[o*words:], rows, nI, nO)
			}
			bt.skipped += h.dead * int64(nI)
		} else {
			for o := 0; o < nO; o++ {
				affineRowT(gw[o*nI:], bt.zero, d[o:], layerIn, rows, nI, nO)
			}
		}
		affineRowT(t.gradB[l], bt.zero, bt.ones, d, rows, nO, 1)
		if l == 0 {
			break
		}
		dp := bt.delta[l-1][:rows*nI]
		if l < last && bt.hidden[l].finiteW {
			h, words := &bt.hidden[l], (nO+63)/64
			for s := 0; s < rows; s++ {
				affineRowTLive(dp[s*nI:], bt.zero, d[s*nO:], net.W[l], h.live[s*words:], nO, nI, 1)
			}
			bt.skipped += h.dead * int64(nI)
		} else {
			for s := 0; s < rows; s++ {
				affineRowT(dp[s*nI:], bt.zero, d[s*nO:], net.W[l], nO, nI, 1)
			}
		}
		maskNonPos(dp, bt.zs[l-1][:rows*nI])
	}
	trainTermsTotal.Add(bt.terms)
	trainTermsSkipped.Add(bt.skipped)
}

// transposeBits writes the bit transpose of a rows × width bit matrix:
// bit s of dst's unit-major row o ((rows+63)/64 words a row) is bit o of
// src's row s ((width+63)/64 words a row). It runs in 64×64 tiles.
func transposeBits(dst, src []uint64, rows, width int) {
	srcWords, dstWords := (width+63)/64, (rows+63)/64
	var tile [64]uint64
	for sb := 0; sb < dstWords; sb++ {
		n := min(64, rows-sb*64)
		for ob := 0; ob < srcWords; ob++ {
			for k := range n {
				tile[k] = src[(sb*64+k)*srcWords+ob]
			}
			clear(tile[n:])
			transpose64(&tile)
			for k := range min(64, width-ob*64) {
				dst[(ob*64+k)*dstWords+sb] = tile[k]
			}
		}
	}
}

// transpose64 transposes a 64×64 bit matrix in place (bit o of word s
// becomes bit s of word o) by swapping off-diagonal blocks of halving size
// (Hacker's Delight, 7-3): 6 rounds of 32 word pairs.
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j >>= 1 {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			// k and k+j are below 64; the masks only drop the bounds checks.
			t := (a[k&63]>>j ^ a[(k+j)&63]) & m
			a[k&63] ^= t << j
			a[(k+j)&63] ^= t
		}
		m ^= m << (j >> 1)
	}
}

// TrainClassBatch performs one optimizer step on a weighted minibatch of
// classification samples and returns the weighted mean cross-entropy loss
// (nats). labels[i] indexes the true output bin; weights may be nil for
// uniform weighting.
//
// The whole minibatch runs through the kernel primitives, one code path on
// every platform (each primitive picks its SIMD or portable body itself).
// Every sum of the step is an affineRowT call — ascending index order from
// its bias or from +0, one rounding per multiply and per add — so
// gradients, loss and updated weights are bitwise identical to the
// one-sample-at-a-time rank-1 backprop the differential tests keep as the
// oracle.
func (t *Trainer) TrainClassBatch(xs [][]float64, labels []int, weights []float64) float64 {
	if len(xs) != len(labels) {
		panic(fmt.Sprintf("nn: %d inputs vs %d labels", len(xs), len(labels)))
	}
	if len(xs) == 0 {
		return 0
	}
	totalW := totalWeight(weights, len(xs))
	if totalW <= 0 {
		return 0
	}
	bt := t.forward(xs)
	last := t.Net.NumLayers() - 1
	nOut := t.Net.OutputSize()
	loss := 0.0
	for s := range xs {
		w := 1.0
		if weights != nil {
			w = weights[s]
		}
		drow := bt.delta[last][s*nOut : (s+1)*nOut]
		if w == 0 {
			clear(drow)
			continue
		}
		Softmax(t.probs, bt.zs[last][s*nOut:(s+1)*nOut])
		lbl := labels[s]
		if lbl < 0 || lbl >= len(t.probs) {
			panic(fmt.Sprintf("nn: label %d out of range [0,%d)", lbl, len(t.probs)))
		}
		p := t.probs[lbl]
		if p < 1e-300 {
			p = 1e-300
		}
		loss += float64(-w * math.Log(p))
		scale := w / totalW
		for i, pi := range t.probs {
			drow[i] = pi * scale
		}
		drow[lbl] -= scale
	}
	t.backward(len(xs))
	t.Opt.Step(t.Net, t.grad)
	return loss / totalW
}

// PolicyGradStep performs one step of REINFORCE-style training: the mean
// over samples of the gradient of -advantage*log(pi(action|x)) -
// entropyCoeff*H(pi), then one optimizer step — TrainClassBatch's step with
// a different loss in the middle. Used by the Pensieve reproduction. Returns
// the mean policy loss (excluding the entropy bonus).
func (t *Trainer) PolicyGradStep(xs [][]float64, actions []int, advantages []float64, entropyCoeff float64) float64 {
	if len(xs) != len(actions) || len(xs) != len(advantages) {
		panic("nn: PolicyGradStep length mismatch")
	}
	if len(xs) == 0 {
		return 0
	}
	nOut := t.Net.OutputSize()
	for _, a := range actions {
		if a < 0 || a >= nOut {
			panic(fmt.Sprintf("nn: action %d out of range [0,%d)", a, nOut))
		}
	}
	bt := t.forward(xs)
	last := t.Net.NumLayers() - 1
	n := float64(len(xs))
	loss := 0.0
	for s, a := range actions {
		Softmax(t.probs, bt.zs[last][s*nOut:(s+1)*nOut])
		adv := advantages[s]
		p := t.probs[a]
		if p < 1e-300 {
			p = 1e-300
		}
		loss += float64(-adv * math.Log(p))
		h := 0.0
		if entropyCoeff != 0 {
			h = Entropy(t.probs)
		}
		// d/dlogits of -adv*log p_a is adv*(p - onehot_a); of -coeff*H(p),
		// the entropy bonus, coeff*p_i*(log p_i + H).
		drow := bt.delta[last][s*nOut : (s+1)*nOut]
		for i, pi := range t.probs {
			drow[i] = adv * pi / n
			if entropyCoeff != 0 && pi > 0 {
				drow[i] += entropyCoeff * pi * (math.Log(pi) + h) / n
			}
		}
		drow[a] -= adv / n
	}
	t.backward(len(xs))
	t.Opt.Step(t.Net, t.grad)
	return loss / n
}
