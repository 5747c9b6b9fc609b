package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// scalarRef is the one-sample-at-a-time network the batched trainer is held
// to, kept here because nothing but these tests runs it: a forward pass of
// plain dot products that retains every layer's activations, and the rank-1
// backprop that reads them. Each sum runs in ascending index order from its
// bias or from zero, which is the order affineRowT keeps.
type scalarRef struct {
	acts   [][]float64 // acts[0] is the input; acts[l+1] = relu(zs[l]), the last unused
	zs     [][]float64 // pre-activations; zs[last] are the logits
	deltas [][]float64 // dLoss/dz per layer
}

func newScalarRef(m *MLP) *scalarRef {
	ref := &scalarRef{acts: [][]float64{make([]float64, m.InputSize())}}
	for _, width := range m.Sizes[1:] {
		ref.acts = append(ref.acts, make([]float64, width))
		ref.zs = append(ref.zs, make([]float64, width))
		ref.deltas = append(ref.deltas, make([]float64, width))
	}
	return ref
}

// forward returns the logits of one sample.
func (ref *scalarRef) forward(m *MLP, x []float64) []float64 {
	copy(ref.acts[0], x)
	for l := range ref.zs {
		in, nIn := ref.acts[l], m.Sizes[l]
		for o := range ref.zs[l] {
			z := m.B[l][o]
			for i, xi := range in {
				z += float64(m.W[l][o*nIn+i] * xi)
			}
			ref.zs[l][o] = z
			if z > 0 {
				ref.acts[l+1][o] = z
			} else {
				ref.acts[l+1][o] = 0
			}
		}
	}
	return ref.zs[len(ref.zs)-1]
}

// backprop adds one sample's gradient to t's slab given its output delta
// (already scaled by the sample's share of the batch). ref must hold that
// sample's forward state; the caller clears the slab before the first one.
func (ref *scalarRef) backprop(t *Trainer, delta []float64) {
	net := t.Net
	last := net.NumLayers() - 1
	copy(ref.deltas[last], delta)
	for l := last; l >= 0; l-- {
		d, in, nIn := ref.deltas[l], ref.acts[l], net.Sizes[l]
		for o, dv := range d {
			if dv == 0 {
				continue
			}
			for i, xi := range in {
				t.gradW[l][o*nIn+i] += float64(dv * xi)
			}
			t.gradB[l][o] += dv
		}
		if l == 0 {
			break
		}
		// delta_{l-1} = (W[l]^T d) * relu'(z_{l-1})
		prev := ref.deltas[l-1]
		clear(prev)
		for o, dv := range d {
			if dv == 0 {
				continue
			}
			for i := range prev {
				prev[i] += float64(net.W[l][o*nIn+i] * dv)
			}
		}
		for i, z := range ref.zs[l-1] {
			if z <= 0 {
				prev[i] = 0
			}
		}
	}
}

// trainClassPerSample is TrainClassBatch one sample at a time over scalarRef:
// the differential oracle for the batched step and the before/after baseline
// of BenchmarkTrainEpoch.
func (t *Trainer) trainClassPerSample(xs [][]float64, labels []int, weights []float64) float64 {
	if len(xs) != len(labels) {
		panic(fmt.Sprintf("nn: %d inputs vs %d labels", len(xs), len(labels)))
	}
	if len(xs) == 0 {
		return 0
	}
	clear(t.grad)
	totalW := totalWeight(weights, len(xs))
	if totalW <= 0 {
		return 0
	}
	ref := newScalarRef(t.Net)
	loss := 0.0
	delta := make([]float64, t.Net.OutputSize())
	for s, x := range xs {
		w := 1.0
		if weights != nil {
			w = weights[s]
		}
		if w == 0 {
			continue
		}
		Softmax(t.probs, ref.forward(t.Net, x))
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
			delta[i] = pi * scale
		}
		delta[lbl] -= scale
		ref.backprop(t, delta)
	}
	t.Opt.Step(t.Net, t.grad)
	return loss / totalW
}

// policyGradPerSample is PolicyGradStep one sample at a time over scalarRef,
// as the trainer ran it before the step moved onto forward/backward (the
// entropy recomputed per output included).
func (t *Trainer) policyGradPerSample(xs [][]float64, actions []int, advantages []float64, entropyCoeff float64) float64 {
	clear(t.grad)
	ref := newScalarRef(t.Net)
	n := float64(len(xs))
	loss := 0.0
	delta := make([]float64, t.Net.OutputSize())
	for s, x := range xs {
		Softmax(t.probs, ref.forward(t.Net, x))
		a := actions[s]
		adv := advantages[s]
		p := t.probs[a]
		if p < 1e-300 {
			p = 1e-300
		}
		loss += float64(-adv * math.Log(p))
		for i, pi := range t.probs {
			delta[i] = adv * pi / n
			if entropyCoeff != 0 && pi > 0 {
				h := Entropy(t.probs)
				delta[i] += entropyCoeff * pi * (math.Log(pi) + h) / n
			}
		}
		delta[a] -= adv / n
		ref.backprop(t, delta)
	}
	t.Opt.Step(t.Net, t.grad)
	return loss / n
}

// trainFixture builds a net pair (identical weights) plus a labeled,
// weighted corpus. Zero weights are sprinkled in to exercise the skip path.
func trainFixture(rng *rand.Rand, sizes []int, n int) (a, b *MLP, xs [][]float64, labels []int, weights []float64) {
	a = NewMLP(rng, sizes...)
	b = a.Clone()
	nIn, nOut := a.InputSize(), a.OutputSize()
	for s := 0; s < n; s++ {
		x := make([]float64, nIn)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		xs = append(xs, x)
		labels = append(labels, rng.Intn(nOut))
		w := rng.Float64() * 2
		if s%7 == 3 {
			w = 0
		}
		weights = append(weights, w)
	}
	return a, b, xs, labels, weights
}

// TestTrainClassBatchMatchesPerSample: the batched minibatch step must leave
// bitwise-identical weights, optimizer state effects, and losses compared
// with the per-sample reference, across optimizers, shapes, weighted and
// uniform batches, and multi-step trajectories.
func TestTrainClassBatchMatchesPerSample(t *testing.T) { checkTrainClassMatchesPerSample(t) }

func checkTrainClassMatchesPerSample(t *testing.T) {
	shapes := [][]int{
		{22, 64, 64, 21},
		{5, 21},
		{7, 3, 2},
		{9, 8, 8, 8, 4},
	}
	rng := rand.New(rand.NewSource(99))
	for _, sizes := range shapes {
		for _, uniform := range []bool{false, true} {
			a, b, xs, labels, weights := trainFixture(rng, sizes, 53)
			if uniform {
				weights = nil
			}
			ta := NewTrainer(a, &Adam{LR: 1e-3})
			tb := NewTrainer(b, &Adam{LR: 1e-3})
			for step := 0; step < 5; step++ {
				// Vary the batch size so remainder batches are hit too.
				lo, hi := (step*13)%len(xs), len(xs)
				var w []float64
				if weights != nil {
					w = weights[lo:hi]
				}
				lossA := ta.TrainClassBatch(xs[lo:hi], labels[lo:hi], w)
				lossB := tb.trainClassPerSample(xs[lo:hi], labels[lo:hi], w)
				if math.Float64bits(lossA) != math.Float64bits(lossB) {
					t.Fatalf("shape %v uniform=%v step %d: loss %v vs %v", sizes, uniform, step, lossA, lossB)
				}
			}
			for l := range a.W {
				for i := range a.W[l] {
					if math.Float64bits(a.W[l][i]) != math.Float64bits(b.W[l][i]) {
						t.Fatalf("shape %v uniform=%v: W[%d][%d] diverged: %v vs %v",
							sizes, uniform, l, i, a.W[l][i], b.W[l][i])
					}
				}
				for i := range a.B[l] {
					if math.Float64bits(a.B[l][i]) != math.Float64bits(b.B[l][i]) {
						t.Fatalf("shape %v uniform=%v: B[%d][%d] diverged", sizes, uniform, l, i)
					}
				}
			}
		}
	}
}

// sameParams fails unless a and b hold bitwise-equal parameters.
func sameParams(t *testing.T, what string, a, b *MLP) {
	t.Helper()
	for l := range a.W {
		for i := range a.W[l] {
			if math.Float64bits(a.W[l][i]) != math.Float64bits(b.W[l][i]) {
				t.Fatalf("%s: W[%d][%d] diverged: %v vs %v", what, l, i, a.W[l][i], b.W[l][i])
			}
		}
		for i := range a.B[l] {
			if math.Float64bits(a.B[l][i]) != math.Float64bits(b.B[l][i]) {
				t.Fatalf("%s: B[%d][%d] diverged: %v vs %v", what, l, i, a.B[l][i], b.B[l][i])
			}
		}
	}
}

// TestPolicyGradMatchesPerSample: PolicyGradStep on the batched
// forward/backward against the per-sample reference, 200 random minibatches
// per optimizer (1-40 rows, some zero advantages, the entropy bonus on every
// other step), on the Pensieve policy's shape. The returned loss and every
// parameter must agree bit for bit after every step.
func TestPolicyGradMatchesPerSample(t *testing.T) { checkPolicyGradMatchesPerSample(t) }

func checkPolicyGradMatchesPerSample(t *testing.T) {
	opts := map[string]func() Optimizer{
		"Adam":         func() Optimizer { return &Adam{LR: 1e-3} },
		"SGD-momentum": func() Optimizer { return &SGD{LR: 0.01, Momentum: 0.9, WeightDecay: 1e-4} },
	}
	for name, opt := range opts {
		rng := rand.New(rand.NewSource(31))
		a := NewMLP(rng, 29, 64, 64, 10)
		b := a.Clone()
		ta, tb := NewTrainer(a, opt()), NewTrainer(b, opt())
		for step := 0; step < 200; step++ {
			rows := 1 + rng.Intn(40)
			xs := make([][]float64, rows)
			actions := make([]int, rows)
			adv := make([]float64, rows)
			for s := range xs {
				xs[s] = randomBatch(rng, 1, a.InputSize())
				actions[s] = rng.Intn(a.OutputSize())
				if rng.Intn(5) != 0 {
					adv[s] = rng.NormFloat64()
				}
			}
			coeff := 0.05 * float64(step%2)
			lossA := ta.PolicyGradStep(xs, actions, adv, coeff)
			lossB := tb.policyGradPerSample(xs, actions, adv, coeff)
			if math.Float64bits(lossA) != math.Float64bits(lossB) {
				t.Fatalf("%s step %d (%d rows): loss %v vs %v", name, step, rows, lossA, lossB)
			}
			sameParams(t, fmt.Sprintf("%s step %d (%d rows)", name, step, rows), a, b)
		}
	}
}

// TestPolicyGradStepRejectsBadAction: an action outside the output range
// panics with TrainClassBatch's message shape before the step touches the
// gradient slab or the weights.
func TestPolicyGradStepRejectsBadAction(t *testing.T) {
	for _, bad := range []int{-1, 3} {
		net := NewMLP(rand.New(rand.NewSource(8)), 2, 4, 3)
		tr := NewTrainer(net, &SGD{LR: 0.1})
		tr.PolicyGradStep([][]float64{{1, 2}}, []int{1}, []float64{1}, 0)
		params := append([]float64(nil), net.flat...)
		grad := append([]float64(nil), tr.grad...)
		func() {
			defer func() {
				want := fmt.Sprintf("nn: action %d out of range [0,3)", bad)
				if got := recover(); got != want {
					t.Fatalf("action %d: panic %v, want %q", bad, got, want)
				}
			}()
			tr.PolicyGradStep([][]float64{{1, 2}, {3, 4}}, []int{0, bad}, []float64{1, 1}, 0)
		}()
		sameFloats(t, "parameters", net.flat, params)
		sameFloats(t, "gradient slab", tr.grad, grad)
	}
}

// TestPolicyGradStepNoAlloc: after warm-up a policy-gradient step allocates
// nothing, entropy bonus or not.
func TestPolicyGradStepNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := NewMLP(rng, 29, 64, 64, 10)
	tr := NewTrainer(net, &Adam{LR: 1e-3})
	xs := make([][]float64, 30)
	actions := make([]int, len(xs))
	adv := make([]float64, len(xs))
	for s := range xs {
		xs[s] = randomBatch(rng, 1, 29)
		actions[s] = rng.Intn(10)
		adv[s] = rng.NormFloat64()
	}
	tr.PolicyGradStep(xs, actions, adv, 0.05)
	if allocs := testing.AllocsPerRun(20, func() { tr.PolicyGradStep(xs, actions, adv, 0.05) }); allocs != 0 {
		t.Fatalf("PolicyGradStep allocates %v times per step, want 0", allocs)
	}
}

// TestTrainClassBatchSGDMomentum repeats the differential check under SGD
// with momentum and weight decay, whose step reads gradients differently.
func TestTrainClassBatchSGDMomentum(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b, xs, labels, weights := trainFixture(rng, []int{12, 16, 8}, 40)
	ta := NewTrainer(a, &SGD{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4})
	tb := NewTrainer(b, &SGD{LR: 0.05, Momentum: 0.9, WeightDecay: 1e-4})
	for step := 0; step < 8; step++ {
		lossA := ta.TrainClassBatch(xs, labels, weights)
		lossB := tb.trainClassPerSample(xs, labels, weights)
		if math.Float64bits(lossA) != math.Float64bits(lossB) {
			t.Fatalf("step %d: loss %v vs %v", step, lossA, lossB)
		}
	}
	for l := range a.W {
		for i := range a.W[l] {
			if math.Float64bits(a.W[l][i]) != math.Float64bits(b.W[l][i]) {
				t.Fatalf("W[%d][%d] diverged after momentum steps", l, i)
			}
		}
	}
}

// BenchmarkTrainEpoch measures one epoch of TTP-shaped minibatch training
// (64-sample batches, weighted) through the batched path and the per-sample
// reference — the before/after ns/epoch for the nightly retraining phase.
func BenchmarkTrainEpoch(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	const n, batch = 1024, 64
	net := NewMLP(rng, 22, 64, 64, 21)
	xs := make([][]float64, n)
	labels := make([]int, n)
	weights := make([]float64, n)
	for s := range xs {
		x := make([]float64, 22)
		for i := range x {
			x[i] = rng.Float64()
		}
		xs[s] = x
		labels[s] = rng.Intn(21)
		weights[s] = 0.5 + rng.Float64()
	}
	epoch := func(tr *Trainer, step func([][]float64, []int, []float64) float64) {
		for at := 0; at < n; at += batch {
			step(xs[at:at+batch], labels[at:at+batch], weights[at:at+batch])
		}
	}
	b.Run("batched", func(b *testing.B) {
		tr := NewTrainer(net.Clone(), &Adam{LR: 1e-3})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			epoch(tr, tr.TrainClassBatch)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/epoch")
	})
	b.Run("per-sample", func(b *testing.B) {
		tr := NewTrainer(net.Clone(), &Adam{LR: 1e-3})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			epoch(tr, tr.trainClassPerSample)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/epoch")
	})
}

// TestAdamSlabMatchesScalarReference: Adam.Step — one fused pass over the
// parameter, gradient and moment slabs, vectorised where the machine allows
// — against the layer-at-a-time scalar loop it replaced, for 1,000 steps on
// the TTP's 6,997-parameter shape with fresh random gradients each step.
// Parameters and both moments must agree bit for bit after every step.
func TestAdamSlabMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	net := NewMLP(rng, 22, 64, 64, 21)
	tr := NewTrainer(net, &nopOpt{}) // for a gradient slab of the right shape
	opt := &Adam{LR: 1e-3}
	n := net.NumParams()
	if n != 6997 || len(tr.grad) != n {
		t.Fatalf("slab has %d parameters and %d gradients, want 6997", n, len(tr.grad))
	}
	p := append([]float64(nil), net.flat...)
	m, v := make([]float64, n), make([]float64, n)
	// Variables, not constants: 1-b1 must round at run time as Adam's does.
	b1, b2, eps, lr := 0.9, 0.999, 1e-8, 1e-3
	for step := 1; step <= 1000; step++ {
		for i := range tr.grad {
			tr.grad[i] = rng.NormFloat64() * math.Exp(4*rng.NormFloat64())
			if rng.Intn(50) == 0 {
				tr.grad[i] = 0 // dead ReLU units leave exact zeros
			}
		}
		opt.Step(net, tr.grad)
		c1 := 1 - math.Pow(b1, float64(step))
		c2 := 1 - math.Pow(b2, float64(step))
		for i, g := range tr.grad {
			m[i] = float64(b1*m[i]) + float64((1-b1)*g)
			v[i] = float64(b2*v[i]) + float64((1-b2)*g*g)
			mh := m[i] / c1
			vh := v[i] / c2
			p[i] -= lr * mh / (math.Sqrt(vh) + eps)
		}
		for i := range p {
			if math.Float64bits(p[i]) != math.Float64bits(net.flat[i]) ||
				math.Float64bits(m[i]) != math.Float64bits(opt.m[i]) ||
				math.Float64bits(v[i]) != math.Float64bits(opt.v[i]) {
				t.Fatalf("step %d element %d: p %v vs %v, m %v vs %v, v %v vs %v",
					step, i, net.flat[i], p[i], opt.m[i], m[i], opt.v[i], v[i])
			}
		}
	}
}
