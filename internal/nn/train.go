package nn

import (
	"fmt"
	"math"
	"slices"
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

// SGD is stochastic gradient descent with optional momentum and L2 weight
// decay.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	vel []float64 // momentum slab
}

// Step implements Optimizer. Weight decay applies to weights only, so it
// walks the slab by layer: W[l] decayed, B[l] not.
func (s *SGD) Step(net *MLP, grad []float64) {
	checkSlab(net, grad)
	if s.Momentum != 0 && s.vel == nil {
		s.vel = make([]float64, len(grad))
	}
	at := 0
	for l := range net.W {
		at = s.update(net.flat, grad, at, len(net.W[l]), s.WeightDecay)
		at = s.update(net.flat, grad, at, len(net.B[l]), 0)
	}
	net.packed.Store(nil)
}

// update steps p[at:at+n] and returns at+n.
func (s *SGD) update(p, grad []float64, at, n int, decay float64) int {
	for i := at; i < at+n; i++ {
		g := grad[i]
		if decay != 0 {
			g += decay * p[i]
		}
		if s.Momentum != 0 {
			s.vel[i] = s.Momentum*s.vel[i] + g
			g = s.vel[i]
		}
		p[i] -= s.LR * g
	}
	return at + n
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR    float64
	Beta1 float64 // defaults to 0.9 if zero
	Beta2 float64 // defaults to 0.999 if zero
	Eps   float64 // defaults to 1e-8 if zero

	t    int
	m, v []float64 // first and second moment slabs
}

// Step implements Optimizer: one fused pass (adamStep) over the parameter,
// gradient and moment slabs.
func (a *Adam) Step(net *MLP, grad []float64) {
	checkSlab(net, grad)
	if a.Beta1 == 0 {
		a.Beta1 = 0.9
	}
	if a.Beta2 == 0 {
		a.Beta2 = 0.999
	}
	if a.Eps == 0 {
		a.Eps = 1e-8
	}
	if a.m == nil {
		a.m, a.v = make([]float64, len(grad)), make([]float64, len(grad))
	}
	a.t++
	adamStep(net.flat, grad, a.m, a.v, &adamConsts{
		b1: a.Beta1, ob1: 1 - a.Beta1,
		b2: a.Beta2, ob2: 1 - a.Beta2,
		c1: 1 - math.Pow(a.Beta1, float64(a.t)),
		c2: 1 - math.Pow(a.Beta2, float64(a.t)),
		lr: a.LR, eps: a.Eps,
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
}

// batchTrainWS holds the flat row-major matrices one batched training step
// needs: the packed input batch, per-layer pre- and post-activations from
// the forward pass, per-layer deltas for the backward pass, the transposed
// weights the forward kernel reads, and the two constant vectors that turn
// affineRowT into a plain sum (a +0 "bias") and a column sum (all-ones
// "inputs"). It grows to the largest minibatch seen and never allocates
// afterwards.
type batchTrainWS struct {
	rows  int
	x     []float64
	zs    [][]float64 // pre-activations per layer (relu mask + logits)
	acts  [][]float64 // post-activations per layer (inputs to layer l+1)
	delta [][]float64 // dLoss/dz per layer
	wt    [][]float64 // input-major weights, re-transposed every step
	zero  []float64   // +0 per output of the widest layer
	ones  []float64   // 1 per sample
}

// ensureBatchWS sizes the batched-training scratch for a rows-sample batch.
func (t *Trainer) ensureBatchWS(rows int) *batchTrainWS {
	bt := t.bt
	if bt == nil {
		layers := t.Net.NumLayers()
		bt = &batchTrainWS{
			zs:    make([][]float64, layers),
			acts:  make([][]float64, layers),
			delta: make([][]float64, layers),
			wt:    make([][]float64, layers),
		}
		for l := range bt.wt {
			bt.wt[l] = make([]float64, len(t.Net.W[l]))
		}
		bt.zero = make([]float64, slices.Max(t.Net.Sizes))
		t.bt = bt
	}
	if rows > bt.rows {
		bt.rows = rows
		bt.x = make([]float64, rows*t.Net.InputSize())
		for l := 0; l < t.Net.NumLayers(); l++ {
			w := rows * t.Net.Sizes[l+1]
			bt.zs[l] = make([]float64, w)
			bt.acts[l] = make([]float64, w)
			bt.delta[l] = make([]float64, w)
		}
		bt.ones = slices.Repeat([]float64{1}, rows)
	}
	return bt
}

// NewTrainer creates a Trainer for net with the given optimizer. A net whose
// parameters are not in one slab yet (built by hand) is packed first: the
// optimizers step the slab.
func NewTrainer(net *MLP, opt Optimizer) *Trainer {
	if net.flat == nil {
		if err := net.Pack(); err != nil {
			panic(err)
		}
	}
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
	for l := 0; l <= last; l++ {
		nI, width := net.Sizes[l], net.Sizes[l+1]
		z := bt.zs[l][:rows*width]
		transposeInto(bt.wt[l], net.W[l], nI, width)
		for r := 0; r < rows; r++ {
			affineRowT(z[r*width:], net.B[l], in[r*nI:], bt.wt[l], nI, width, 1)
		}
		if l == last {
			break
		}
		in = bt.acts[l][:rows*width]
		reluCopy(in, z)
	}
	return bt
}

// backward turns the output deltas a loss left in bt.delta[last] (rows ×
// OutputSize, already scaled by sample weight over batch weight) into the
// gradient slab, every element of which it assigns, so nothing is cleared
// first. Each sum is affineRowT's, from +0: gradW row o over samples (x:
// delta column o, at stride nO; weights: the layer's input matrix), gradB
// over samples (x: ones; weights: the delta matrix), and a sample's
// propagated delta over outputs (weights: W as stored) — then the ReLU mask.
// A sample whose delta row is all zero adds nothing to any of them, exactly
// as if it had been skipped.
func (t *Trainer) backward(rows int) {
	net, bt := t.Net, t.bt
	for l := net.NumLayers() - 1; l >= 0; l-- {
		nI, nO := net.Sizes[l], net.Sizes[l+1]
		layerIn := bt.x
		if l > 0 {
			layerIn = bt.acts[l-1]
		}
		d := bt.delta[l][:rows*nO]
		gw := t.gradW[l]
		for o := 0; o < nO; o++ {
			affineRowT(gw[o*nI:], bt.zero, d[o:], layerIn, rows, nI, nO)
		}
		affineRowT(t.gradB[l], bt.zero, bt.ones, d, rows, nO, 1)
		if l == 0 {
			break
		}
		dp := bt.delta[l-1][:rows*nI]
		for s := 0; s < rows; s++ {
			affineRowT(dp[s*nI:], bt.zero, d[s*nO:], net.W[l], nO, nI, 1)
		}
		maskNonPos(dp, bt.zs[l-1][:rows*nI])
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
		loss += -w * math.Log(p)
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
		loss += -adv * math.Log(p)
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
