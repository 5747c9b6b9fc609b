package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// trainClassPerSample is the pre-batching implementation of TrainClassBatch:
// forward one sample at a time through the scalar path and backprop rank-1
// gradient updates. It is the differential oracle for the batched step and
// the before/after baseline of BenchmarkTrainEpoch.
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
		logits := t.Net.ForwardInto(t.ws, x)
		Softmax(t.probs, logits)
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
			delta[i] = pi * scale
		}
		delta[lbl] -= scale
		t.backprop(delta)
	}
	t.Opt.Step(t.Net, t.grad)
	return loss / totalW
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
func TestTrainClassBatchMatchesPerSample(t *testing.T) {
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
			m[i] = b1*m[i] + (1-b1)*g
			v[i] = b2*v[i] + (1-b2)*g*g
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
