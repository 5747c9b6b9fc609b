package nn

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"puffer/internal/wire"
)

func TestNewMLPShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP(rng, 22, 64, 64, 21)
	if got := m.NumLayers(); got != 3 {
		t.Fatalf("NumLayers = %d, want 3", got)
	}
	if got := m.InputSize(); got != 22 {
		t.Fatalf("InputSize = %d, want 22", got)
	}
	if got := m.OutputSize(); got != 21 {
		t.Fatalf("OutputSize = %d, want 21", got)
	}
	want := 22*64 + 64 + 64*64 + 64 + 64*21 + 21
	if got := m.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
}

func TestNewMLPPanicsOnBadSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for single-layer sizes")
		}
	}()
	NewMLP(rand.New(rand.NewSource(1)), 5)
}

func TestForwardDeterministic(t *testing.T) {
	m := NewMLP(rand.New(rand.NewSource(7)), 4, 8, 3)
	x := []float64{0.5, -1, 2, 0}
	a := forwardOne(m, x)
	b := forwardOne(m, x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("forward not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
	// Same seed -> same network -> same output.
	m2 := NewMLP(rand.New(rand.NewSource(7)), 4, 8, 3)
	c := forwardOne(m2, x)
	for i := range a {
		if a[i] != c[i] {
			t.Fatalf("same-seed networks disagree at %d", i)
		}
	}
}

func TestForwardNoHiddenIsAffine(t *testing.T) {
	// A 2-size MLP must be exactly W x + b (the "linear" ablation).
	m := NewMLP(rand.New(rand.NewSource(3)), 3, 2)
	x := []float64{1, -2, 0.5}
	out := forwardOne(m, x)
	for o := 0; o < 2; o++ {
		want := m.B[0][o]
		for i := 0; i < 3; i++ {
			want += m.W[0][o*3+i] * x[i]
		}
		if math.Abs(out[o]-want) > 1e-12 {
			t.Fatalf("affine output %d = %v, want %v", o, out[o], want)
		}
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		logits := make([]float64, len(raw))
		for i, v := range raw {
			// Clamp quick-generated values to a sane range.
			logits[i] = math.Mod(v, 50)
			if math.IsNaN(logits[i]) {
				logits[i] = 0
			}
		}
		p := make([]float64, len(logits))
		Softmax(p, logits)
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	logits := []float64{1, 2, 3, 4}
	shifted := []float64{101, 102, 103, 104}
	a := make([]float64, 4)
	b := make([]float64, 4)
	Softmax(a, logits)
	Softmax(b, shifted)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("softmax not shift invariant at %d", i)
		}
	}
}

func TestSoftmaxExtremeLogits(t *testing.T) {
	p := make([]float64, 3)
	Softmax(p, []float64{1000, -1000, 999})
	if math.IsNaN(p[0]) || math.IsInf(p[0], 0) {
		t.Fatal("softmax overflowed on large logits")
	}
	if p[0] < p[2] {
		t.Fatal("ordering not preserved")
	}
	sum := p[0] + p[1] + p[2]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("sum = %v, want 1", sum)
	}
}

// BenchmarkSoftmax times one 21-wide row, the TTP's transmit-time bins,
// through the dispatched entry (the vector body where the machine has it)
// and through the scalar body.
func BenchmarkSoftmax(b *testing.B) {
	rng := rand.New(rand.NewSource(21))
	logits, dst := make([]float64, 21), make([]float64, 21)
	for i := range logits {
		logits[i] = 3 * rng.NormFloat64()
	}
	b.Run("dispatched", func(b *testing.B) {
		for b.Loop() {
			Softmax(dst, logits)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for b.Loop() {
			softmaxGo(dst, logits)
		}
	})
}

func TestArgMax(t *testing.T) {
	cases := []struct {
		in   []float64
		want int
	}{
		{[]float64{1}, 0},
		{[]float64{1, 3, 2}, 1},
		{[]float64{5, 5, 5}, 0}, // first on ties
		{[]float64{-2, -1, -3}, 1},
	}
	for _, c := range cases {
		if got := ArgMax(c.in); got != c.want {
			t.Errorf("ArgMax(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestEntropy(t *testing.T) {
	uniform := []float64{0.25, 0.25, 0.25, 0.25}
	if got, want := Entropy(uniform), math.Log(4); math.Abs(got-want) > 1e-12 {
		t.Fatalf("uniform entropy = %v, want %v", got, want)
	}
	point := []float64{1, 0, 0, 0}
	if got := Entropy(point); got != 0 {
		t.Fatalf("point-mass entropy = %v, want 0", got)
	}
}

// numericalGradCheck compares backprop gradients against central finite
// differences for the cross-entropy loss on one sample.
func TestGradientCheckCrossEntropy(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := NewMLP(rng, 5, 7, 4)
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	label := 2

	// Analytic gradients via a Trainer with a no-op optimizer.
	tr := NewTrainer(net, &nopOpt{})
	tr.TrainClassBatch([][]float64{x}, []int{label}, nil)

	// checkParam pokes parameters directly, so it is an in-package writer
	// and owes the net what Optimizer.Step does: drop the cached snapshot.
	lossAt := func() float64 {
		net.packed.Store(nil)
		return CrossEntropy(net, [][]float64{x}, []int{label})
	}
	const eps = 1e-6
	checkParam := func(p []float64, g []float64, name string, l int) {
		for i := range p {
			orig := p[i]
			p[i] = orig + eps
			up := lossAt()
			p[i] = orig - eps
			down := lossAt()
			p[i] = orig
			num := (up - down) / (2 * eps)
			if math.Abs(num-g[i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("layer %d %s[%d]: analytic %v vs numeric %v", l, name, i, g[i], num)
			}
		}
	}
	for l := range net.W {
		checkParam(net.W[l], tr.gradW[l], "W", l)
		checkParam(net.B[l], tr.gradB[l], "B", l)
	}
}

func TestGradientCheckMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	net := NewMLP(rng, 4, 6, 2)
	x := make([]float64, 4)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	target := []float64{0.3, -1.2}

	tr := NewTrainer(net, &nopOpt{})
	tr.trainRegBatch([][]float64{x}, [][]float64{target})

	lossAt := func() float64 {
		out := forwardOne(net, x)
		s := 0.0
		for i := range out {
			d := out[i] - target[i]
			s += d * d
		}
		return s
	}
	const eps = 1e-6
	for l := range net.W {
		for i := range net.W[l] {
			orig := net.W[l][i]
			net.W[l][i] = orig + eps
			up := lossAt()
			net.W[l][i] = orig - eps
			down := lossAt()
			net.W[l][i] = orig
			num := (up - down) / (2 * eps)
			if math.Abs(num-tr.gradW[l][i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("layer %d W[%d]: analytic %v vs numeric %v", l, i, tr.gradW[l][i], num)
			}
		}
	}
}

// trainRegBatch is one optimizer step under mean squared error (linear
// output) and returns the MSE: the trainer's forward and backward with a
// second loss in the middle. No production code regresses, so it lives here,
// where it gives the gradient check and the optimizer tests a loss whose
// gradient is not softmax's.
func (t *Trainer) trainRegBatch(xs, targets [][]float64) float64 {
	bt := t.forward(xs)
	last, nOut, n := t.Net.NumLayers()-1, t.Net.OutputSize(), float64(len(xs))
	loss := 0.0
	for s, target := range targets {
		for i, want := range target {
			diff := bt.zs[last][s*nOut+i] - want
			loss += diff * diff
			bt.delta[last][s*nOut+i] = 2 * diff / n
		}
	}
	t.backward(len(xs))
	t.Opt.Step(t.Net, t.grad)
	return loss / n
}

// nopOpt leaves parameters untouched so the trainer's accumulated gradients
// can be inspected.
type nopOpt struct{}

func (nopOpt) Step(*MLP, []float64) {}

// sgd is stochastic gradient descent with optional momentum and L2 weight
// decay: the tests' plain optimizer, set against Adam and used to check the
// trainer under a second update rule.
type sgd struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	vel []float64 // momentum slab
}

// Step implements Optimizer. Weight decay applies to weights only, so it
// walks the slab by layer: W[l] decayed, B[l] not.
func (s *sgd) Step(net *MLP, grad []float64) {
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
func (s *sgd) update(p, grad []float64, at, n int, decay float64) int {
	for i := at; i < at+n; i++ {
		g := grad[i]
		if decay != 0 {
			g += float64(decay * p[i])
		}
		if s.Momentum != 0 {
			s.vel[i] = float64(s.Momentum*s.vel[i]) + g
			g = s.vel[i]
		}
		p[i] -= float64(s.LR * g)
	}
	return at + n
}

func TestLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewMLP(rng, 2, 16, 2)
	tr := NewTrainer(net, &Adam{LR: 0.01})
	xs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	labels := []int{0, 1, 1, 0}
	for epoch := 0; epoch < 2000; epoch++ {
		tr.TrainClassBatch(xs, labels, nil)
	}
	if acc := Accuracy(net, xs, labels); acc != 1.0 {
		t.Fatalf("XOR accuracy = %v, want 1.0", acc)
	}
	if loss := CrossEntropy(net, xs, labels); loss > 0.2 {
		t.Fatalf("XOR loss = %v, want < 0.2", loss)
	}
}

func TestLearnsLinearRegression(t *testing.T) {
	// y = 3x1 - 2x2 + 1 learned by a no-hidden-layer net.
	rng := rand.New(rand.NewSource(11))
	net := NewMLP(rng, 2, 1)
	tr := NewTrainer(net, &sgd{LR: 0.05})
	xs := make([][]float64, 64)
	ts := make([][]float64, 64)
	for i := range xs {
		x1, x2 := rng.NormFloat64(), rng.NormFloat64()
		xs[i] = []float64{x1, x2}
		ts[i] = []float64{3*x1 - 2*x2 + 1}
	}
	var loss float64
	for epoch := 0; epoch < 500; epoch++ {
		loss = tr.trainRegBatch(xs, ts)
	}
	if loss > 1e-3 {
		t.Fatalf("regression loss = %v, want < 1e-3", loss)
	}
	if math.Abs(net.W[0][0]-3) > 0.05 || math.Abs(net.W[0][1]+2) > 0.05 || math.Abs(net.B[0][0]-1) > 0.05 {
		t.Fatalf("learned params W=%v b=%v, want [3 -2] 1", net.W[0], net.B[0])
	}
}

func TestSampleWeighting(t *testing.T) {
	// With all weight on the second sample, training should fit it and
	// ignore the first (conflicting) one.
	rng := rand.New(rand.NewSource(13))
	net := NewMLP(rng, 1, 8, 2)
	tr := NewTrainer(net, &Adam{LR: 0.01})
	xs := [][]float64{{1}, {1}}
	labels := []int{0, 1}
	weights := []float64{0, 1}
	for i := 0; i < 500; i++ {
		tr.TrainClassBatch(xs, labels, weights)
	}
	out := forwardOne(net, []float64{1})
	if ArgMax(out) != 1 {
		t.Fatalf("weighted training ignored the weighted sample: logits %v", out)
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := NewMLP(rng, 3, 4, 2)
	b := a.Clone()
	a.W[0][0] += 100
	if b.W[0][0] == a.W[0][0] {
		t.Fatal("clone shares weight storage with original")
	}
	x := []float64{1, 2, 3}
	outA, outB := forwardOne(a, x), forwardOne(b, x)
	same := true
	for i := range outA {
		if outA[i] != outB[i] {
			same = false
		}
	}
	if same {
		t.Fatal("mutating original changed clone output")
	}
}

func TestSerializationRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	m := NewMLP(rng, 22, 64, 64, 21)
	got, err := decodeAll(m.AppendTo(nil))
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 22)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	a, b := forwardOne(m, x), forwardOne(got, x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("roundtripped model differs at output %d", i)
		}
	}
}

// decodeAll decodes the one network b must hold, and nothing else.
func decodeAll(b []byte) (*MLP, error) {
	m := new(MLP)
	if err := wire.Decode(b, m); err != nil {
		return nil, err
	}
	return m, nil
}

func TestLoadRejectsCorruptModel(t *testing.T) {
	if _, err := decodeAll([]byte("not a model layout")); err == nil {
		t.Fatal("Decode accepted garbage input")
	}
}

// TestValidateCatchesShapeMismatch: widths that do not give the slab's
// length, a width out of range and too few layers are each refused with
// ErrBadModel; a slab count past the end is refused before it is allocated.
func TestValidateCatchesShapeMismatch(t *testing.T) {
	good := NewMLP(rand.New(rand.NewSource(1)), 3, 2).AppendTo(nil)
	patch := func(at int, v uint32) []byte {
		b := slices.Clone(good)
		binary.BigEndian.PutUint32(b[at:], v)
		return b
	}
	for name, b := range map[string][]byte{
		"widths disagree with the slab": patch(4, 4),
		"width zero":                    patch(8, 0),
		"width past MaxWidth":           patch(8, MaxWidth+1),
		"one layer":                     append(wire.AppendU32(wire.AppendU32(nil, 1), 3), good[12:]...),
	} {
		if _, err := decodeAll(b); !errors.Is(err, ErrBadModel) {
			t.Errorf("%s: Decode returned %v, want ErrBadModel", name, err)
		}
	}
	var count *wire.CountError
	if _, err := decodeAll(patch(12, 1<<30)); !errors.As(err, &count) {
		t.Errorf("a slab count past the end: Decode returned %v, want *wire.CountError", err)
	}
}

func TestAdamConvergesFasterThanSGDOnIllConditioned(t *testing.T) {
	// Regression on inputs with very different scales — Adam's
	// per-parameter step should cope better than plain SGD.
	make2 := func() (*MLP, [][]float64, [][]float64) {
		rng := rand.New(rand.NewSource(77))
		net := NewMLP(rng, 2, 1)
		xs := make([][]float64, 32)
		ts := make([][]float64, 32)
		for i := range xs {
			x1, x2 := rng.NormFloat64()*100, rng.NormFloat64()*0.01
			xs[i] = []float64{x1, x2}
			ts[i] = []float64{0.01*x1 + 100*x2}
		}
		return net, xs, ts
	}
	netA, xs, ts := make2()
	trA := NewTrainer(netA, &Adam{LR: 0.05})
	netS, _, _ := make2()
	trS := NewTrainer(netS, &sgd{LR: 1e-5}) // larger LR diverges on x1 scale
	var lossA, lossS float64
	for i := 0; i < 300; i++ {
		lossA = trA.trainRegBatch(xs, ts)
		lossS = trS.trainRegBatch(xs, ts)
	}
	if lossA >= lossS {
		t.Fatalf("Adam loss %v not better than SGD loss %v", lossA, lossS)
	}
}

func TestPolicyGradShiftsTowardRewardedAction(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	net := NewMLP(rng, 2, 8, 3)
	tr := NewTrainer(net, &sgd{LR: 0.1})
	x := []float64{1, -1}
	before := make([]float64, 3)
	Softmax(before, forwardOne(net, x))
	for i := 0; i < 50; i++ {
		tr.PolicyGradStep([][]float64{x}, []int{1}, []float64{1.0}, 0)
	}
	after := make([]float64, 3)
	Softmax(after, forwardOne(net, x))
	if after[1] <= before[1] {
		t.Fatalf("positive advantage did not increase action prob: %v -> %v", before[1], after[1])
	}
	// Negative advantage should decrease the probability.
	for i := 0; i < 50; i++ {
		tr.PolicyGradStep([][]float64{x}, []int{1}, []float64{-1.0}, 0)
	}
	final := make([]float64, 3)
	Softmax(final, forwardOne(net, x))
	if final[1] >= after[1] {
		t.Fatalf("negative advantage did not decrease action prob: %v -> %v", after[1], final[1])
	}
}

func TestEntropyBonusKeepsPolicySofter(t *testing.T) {
	train := func(coeff float64) float64 {
		rng := rand.New(rand.NewSource(3))
		net := NewMLP(rng, 2, 8, 3)
		tr := NewTrainer(net, &sgd{LR: 0.1})
		x := []float64{0.5, 0.5}
		for i := 0; i < 200; i++ {
			tr.PolicyGradStep([][]float64{x}, []int{0}, []float64{1.0}, coeff)
		}
		p := make([]float64, 3)
		Softmax(p, forwardOne(net, x))
		return Entropy(p)
	}
	if hFree, hBonus := train(0), train(0.5); hBonus <= hFree {
		t.Fatalf("entropy bonus did not keep policy softer: %v vs %v", hBonus, hFree)
	}
}
