package nn

import (
	"fmt"
	"math"
)

// Optimizer applies a gradient step to a network's parameters. Gradients are
// mean-gradients over the batch the caller accumulated.
type Optimizer interface {
	// Step updates net in place given gradients shaped like net.W / net.B,
	// and drops net's cached packed snapshot, which the write made stale
	// (the cache is unexported, so implementations live in this package).
	Step(net *MLP, gradW, gradB [][]float64)
}

// SGD is stochastic gradient descent with optional momentum and L2 weight
// decay.
type SGD struct {
	LR          float64
	Momentum    float64
	WeightDecay float64

	vw, vb [][]float64
}

// Step implements Optimizer.
func (s *SGD) Step(net *MLP, gradW, gradB [][]float64) {
	if s.Momentum != 0 && s.vw == nil {
		s.vw = zerosLike(net.W)
		s.vb = zerosLike(net.B)
	}
	for l := range net.W {
		for i, g := range gradW[l] {
			if s.WeightDecay != 0 {
				g += s.WeightDecay * net.W[l][i]
			}
			if s.Momentum != 0 {
				s.vw[l][i] = s.Momentum*s.vw[l][i] + g
				g = s.vw[l][i]
			}
			net.W[l][i] -= s.LR * g
		}
		for i, g := range gradB[l] {
			if s.Momentum != 0 {
				s.vb[l][i] = s.Momentum*s.vb[l][i] + g
				g = s.vb[l][i]
			}
			net.B[l][i] -= s.LR * g
		}
	}
	net.packed.Store(nil)
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	LR    float64
	Beta1 float64 // defaults to 0.9 if zero
	Beta2 float64 // defaults to 0.999 if zero
	Eps   float64 // defaults to 1e-8 if zero

	t              int
	mw, vw, mb, vb [][]float64
}

// Step implements Optimizer.
func (a *Adam) Step(net *MLP, gradW, gradB [][]float64) {
	if a.Beta1 == 0 {
		a.Beta1 = 0.9
	}
	if a.Beta2 == 0 {
		a.Beta2 = 0.999
	}
	if a.Eps == 0 {
		a.Eps = 1e-8
	}
	if a.mw == nil {
		a.mw, a.vw = zerosLike(net.W), zerosLike(net.W)
		a.mb, a.vb = zerosLike(net.B), zerosLike(net.B)
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	upd := func(p, g, m, v []float64) {
		for i := range p {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g[i]
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g[i]*g[i]
			mh := m[i] / c1
			vh := v[i] / c2
			p[i] -= a.LR * mh / (math.Sqrt(vh) + a.Eps)
		}
	}
	for l := range net.W {
		upd(net.W[l], gradW[l], a.mw[l], a.vw[l])
		upd(net.B[l], gradB[l], a.mb[l], a.vb[l])
	}
	net.packed.Store(nil)
}

func zerosLike(p [][]float64) [][]float64 {
	z := make([][]float64, len(p))
	for i := range p {
		z[i] = make([]float64, len(p[i]))
	}
	return z
}

// Trainer accumulates gradients over minibatches and steps an optimizer.
// It supports weighted samples (the paper weights recent days more heavily)
// and both classification (softmax + cross-entropy) and regression (MSE)
// heads. Not safe for concurrent use.
type Trainer struct {
	Net *MLP
	Opt Optimizer

	ws           *Workspace
	gradW, gradB [][]float64
	probs        []float64
	bt           *batchTrainWS
}

// batchTrainWS holds the flat row-major matrices one batched training step
// needs: the packed input batch, per-layer pre- and post-activations from
// the forward pass, per-layer deltas for the backward pass, and scratch for
// the SIMD fast path (transposed weights, a zero bias, a delta column, and
// a per-output gradient row). It grows to the largest minibatch seen and
// never allocates afterwards.
type batchTrainWS struct {
	rows  int
	x     []float64
	zs    [][]float64 // pre-activations per layer (relu mask + logits)
	acts  [][]float64 // post-activations per layer (inputs to layer l+1)
	delta [][]float64 // dLoss/dz per layer
	wt    [][]float64 // transposed weights for the SIMD forward
	zero  []float64   // all-zero bias for bias-free kernel calls
	dcol  []float64   // one delta column, gathered contiguous
	grow  []float64   // one gradient row accumulated by the kernel
}

// ensureBatchWS sizes the batched-training scratch for a rows-sample batch.
func (t *Trainer) ensureBatchWS(rows int) *batchTrainWS {
	bt := t.bt
	if bt == nil {
		bt = &batchTrainWS{
			zs:    make([][]float64, t.Net.NumLayers()),
			acts:  make([][]float64, t.Net.NumLayers()),
			delta: make([][]float64, t.Net.NumLayers()),
		}
		if useAVX2 {
			maxW := 0
			for _, s := range t.Net.Sizes {
				if s > maxW {
					maxW = s
				}
			}
			bt.wt = make([][]float64, t.Net.NumLayers())
			for l := 0; l < t.Net.NumLayers(); l++ {
				bt.wt[l] = make([]float64, len(t.Net.W[l]))
			}
			bt.zero = make([]float64, maxW)
			bt.grow = make([]float64, maxW)
		}
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
		if useAVX2 {
			bt.dcol = make([]float64, rows)
		}
	}
	return bt
}

// NewTrainer creates a Trainer for net with the given optimizer.
func NewTrainer(net *MLP, opt Optimizer) *Trainer {
	return &Trainer{
		Net:   net,
		Opt:   opt,
		ws:    net.NewWorkspace(),
		gradW: zerosLike(net.W),
		gradB: zerosLike(net.B),
		probs: make([]float64, net.OutputSize()),
	}
}

func (t *Trainer) zeroGrads() {
	for l := range t.gradW {
		clearSlice(t.gradW[l])
		clearSlice(t.gradB[l])
	}
}

func clearSlice(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// backprop propagates delta (dLoss/dz of the output layer, already scaled by
// the sample weight) through the network, accumulating into gradW/gradB.
// The workspace must hold the forward state for this sample.
func (t *Trainer) backprop(delta []float64) {
	net := t.Net
	last := net.NumLayers() - 1
	copy(t.ws.deltas[last], delta)
	for l := last; l >= 0; l-- {
		d := t.ws.deltas[l]
		in := t.ws.acts[l]
		nIn := net.Sizes[l]
		gw := t.gradW[l]
		gb := t.gradB[l]
		for o, dv := range d {
			if dv == 0 {
				continue
			}
			row := gw[o*nIn : (o+1)*nIn]
			for i, xi := range in {
				row[i] += dv * xi
			}
			gb[o] += dv
		}
		if l == 0 {
			break
		}
		// delta_{l-1} = (W[l]^T d) * relu'(z_{l-1})
		prev := t.ws.deltas[l-1]
		clearSlice(prev)
		w := net.W[l]
		for o, dv := range d {
			if dv == 0 {
				continue
			}
			row := w[o*nIn : (o+1)*nIn]
			for i := range prev {
				prev[i] += row[i] * dv
			}
		}
		z := t.ws.zs[l-1]
		for i := range prev {
			if z[i] <= 0 {
				prev[i] = 0
			}
		}
	}
}

// TrainClassBatch performs one optimizer step on a weighted minibatch of
// classification samples and returns the weighted mean cross-entropy loss
// (nats). labels[i] indexes the true output bin; weights may be nil for
// uniform weighting.
//
// The whole minibatch runs through the batched kernel: one affineBatch call
// per layer forward (pre-activations retained for the ReLU mask), then a
// layer-by-layer batched backward pass whose gradient matrices accumulate
// in ascending-sample order per element — gradients, loss, and the updated
// weights are bitwise identical to the retained per-sample reference
// (trainClassPerSample), which exists as the differential-test oracle and
// the before/after benchmark baseline.
func (t *Trainer) TrainClassBatch(xs [][]float64, labels []int, weights []float64) float64 {
	if len(xs) != len(labels) {
		panic(fmt.Sprintf("nn: %d inputs vs %d labels", len(xs), len(labels)))
	}
	if len(xs) == 0 {
		return 0
	}
	t.zeroGrads()
	totalW := 0.0
	if weights == nil {
		totalW = float64(len(xs))
	} else {
		for _, w := range weights {
			totalW += w
		}
	}
	if totalW <= 0 {
		return 0
	}
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

	// Forward: one batched affine per layer, keeping z (mask, logits) and
	// the post-activation inputs of the next layer. The SIMD path runs the
	// same per-row accumulation over freshly transposed weights (weights
	// change every optimizer step, so the transpose is per minibatch — a
	// few thousand copies against hundreds of thousands of multiplies).
	in := bt.x[:rows*nIn]
	last := net.NumLayers() - 1
	for l := 0; l <= last; l++ {
		nI, width := net.Sizes[l], net.Sizes[l+1]
		z := bt.zs[l][:rows*width]
		if useAVX2 {
			wt := bt.wt[l]
			for o := 0; o < width; o++ {
				row := net.W[l][o*nI : (o+1)*nI]
				for i, v := range row {
					wt[i*width+o] = v
				}
			}
			for r := 0; r < rows; r++ {
				affineRowT(&z[r*width], &net.B[l][0], &in[r*nI], &wt[0], nI, width)
			}
		} else {
			affineBatch(z, in, net.W[l], net.B[l], rows, nI, width)
		}
		if l == last {
			break
		}
		a := bt.acts[l][:rows*width]
		for i, v := range z {
			if v > 0 {
				a[i] = v
			} else {
				a[i] = 0
			}
		}
		in = a
	}

	// Output deltas and loss. Zero-weight samples contribute a zero delta
	// row, which the ascending-sample accumulation below treats exactly
	// like the reference path's skip.
	nOut := net.OutputSize()
	logits := bt.zs[last]
	dOut := bt.delta[last]
	loss := 0.0
	for s := 0; s < rows; s++ {
		w := 1.0
		if weights != nil {
			w = weights[s]
		}
		drow := dOut[s*nOut : (s+1)*nOut]
		if w == 0 {
			clearSlice(drow)
			continue
		}
		Softmax(t.probs, logits[s*nOut:(s+1)*nOut])
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

	// Backward: per layer, a ΔᵀA gradient accumulation plus the delta
	// propagation d_{l-1} = (d_l · W_l) ⊙ relu'(z_{l-1}). Both are sums
	// over one index in ascending order, which is exactly the transposed
	// affine kernel's contract: the gradient row for output o sums over
	// samples with the activation matrix as "weights" (already
	// sample-major), and a sample's propagated delta sums over outputs
	// with W itself as "weights" (already output-major) — so the SIMD
	// path reuses affineRowT for both, with a zero bias.
	for l := last; l >= 0; l-- {
		nI, nO := net.Sizes[l], net.Sizes[l+1]
		layerIn := bt.x
		if l > 0 {
			layerIn = bt.acts[l-1]
		}
		d := bt.delta[l]
		if useAVX2 {
			tmp := bt.grow[:nI]
			gw := t.gradW[l]
			for o := 0; o < nO; o++ {
				for s := 0; s < rows; s++ {
					bt.dcol[s] = d[s*nO+o]
				}
				affineRowT(&tmp[0], &bt.zero[0], &bt.dcol[0], &layerIn[0], rows, nI)
				row := gw[o*nI : (o+1)*nI]
				for i, v := range tmp {
					row[i] += v
				}
			}
		} else {
			accumGradBlocked(t.gradW[l], d, layerIn, rows, nO, nI)
		}
		gb := t.gradB[l]
		for o := 0; o < nO; o++ {
			acc := 0.0
			for s := 0; s < rows; s++ {
				acc += d[s*nO+o]
			}
			gb[o] += acc
		}
		if l == 0 {
			break
		}
		dp := bt.delta[l-1]
		w := net.W[l]
		z := bt.zs[l-1]
		for s := 0; s < rows; s++ {
			prow := dp[s*nI : (s+1)*nI]
			if useAVX2 {
				affineRowT(&prow[0], &bt.zero[0], &d[s*nO], &w[0], nO, nI)
			} else {
				clearSlice(prow)
				for o, dv := range d[s*nO : (s+1)*nO] {
					if dv == 0 {
						continue
					}
					wrow := w[o*nI : (o+1)*nI]
					for i, wv := range wrow {
						prow[i] += wv * dv
					}
				}
			}
			zrow := z[s*nI : (s+1)*nI]
			for i := range prow {
				if zrow[i] <= 0 {
					prow[i] = 0
				}
			}
		}
	}
	t.Opt.Step(net, t.gradW, t.gradB)
	return loss / totalW
}

// accumGradBlocked adds ΔᵀA into gw: gw[o*nIn+i] += Σ_s d[s*nOut+o] ·
// a[s*nIn+i]. The 2x4 register blocking reuses each loaded delta across
// four inputs and each loaded input across two outputs, while every element
// still accumulates in ascending sample order — bitwise identical to the
// per-sample rank-1 updates of the reference path, without re-walking the
// whole gradient matrix once per sample.
func accumGradBlocked(gw, d, a []float64, rows, nOut, nIn int) {
	o := 0
	for ; o+2 <= nOut; o += 2 {
		g0 := gw[o*nIn : (o+1)*nIn]
		g1 := gw[(o+1)*nIn : (o+2)*nIn]
		i := 0
		for ; i+4 <= nIn; i += 4 {
			var a00, a01, a02, a03 float64
			var a10, a11, a12, a13 float64
			for s := 0; s < rows; s++ {
				d0 := d[s*nOut+o]
				d1 := d[s*nOut+o+1]
				ar := a[s*nIn+i : s*nIn+i+4]
				x0, x1, x2, x3 := ar[0], ar[1], ar[2], ar[3]
				a00 += d0 * x0
				a01 += d0 * x1
				a02 += d0 * x2
				a03 += d0 * x3
				a10 += d1 * x0
				a11 += d1 * x1
				a12 += d1 * x2
				a13 += d1 * x3
			}
			g0[i] += a00
			g0[i+1] += a01
			g0[i+2] += a02
			g0[i+3] += a03
			g1[i] += a10
			g1[i+1] += a11
			g1[i+2] += a12
			g1[i+3] += a13
		}
		for ; i < nIn; i++ {
			var s0, s1 float64
			for s := 0; s < rows; s++ {
				x := a[s*nIn+i]
				s0 += d[s*nOut+o] * x
				s1 += d[s*nOut+o+1] * x
			}
			g0[i] += s0
			g1[i] += s1
		}
	}
	for ; o < nOut; o++ {
		g := gw[o*nIn : (o+1)*nIn]
		for i := 0; i < nIn; i++ {
			var sum float64
			for s := 0; s < rows; s++ {
				sum += d[s*nOut+o] * a[s*nIn+i]
			}
			g[i] += sum
		}
	}
}

// trainClassPerSample is the pre-batching implementation: forward one sample
// at a time through the scalar path and backprop rank-1 gradient updates.
// Retained as the differential-test oracle for TrainClassBatch and as the
// before/after benchmark baseline.
func (t *Trainer) trainClassPerSample(xs [][]float64, labels []int, weights []float64) float64 {
	if len(xs) != len(labels) {
		panic(fmt.Sprintf("nn: %d inputs vs %d labels", len(xs), len(labels)))
	}
	if len(xs) == 0 {
		return 0
	}
	t.zeroGrads()
	totalW := 0.0
	if weights == nil {
		totalW = float64(len(xs))
	} else {
		for _, w := range weights {
			totalW += w
		}
	}
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
	t.Opt.Step(t.Net, t.gradW, t.gradB)
	return loss / totalW
}

// TrainRegBatch performs one optimizer step on a weighted minibatch of
// regression samples (MSE loss, linear output) and returns the weighted mean
// squared error. targets[i] must have length OutputSize.
func (t *Trainer) TrainRegBatch(xs, targets [][]float64, weights []float64) float64 {
	if len(xs) != len(targets) {
		panic(fmt.Sprintf("nn: %d inputs vs %d targets", len(xs), len(targets)))
	}
	if len(xs) == 0 {
		return 0
	}
	t.zeroGrads()
	totalW := 0.0
	if weights == nil {
		totalW = float64(len(xs))
	} else {
		for _, w := range weights {
			totalW += w
		}
	}
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
		out := t.Net.ForwardInto(t.ws, x)
		scale := w / totalW
		for i, o := range out {
			diff := o - targets[s][i]
			loss += w * diff * diff
			delta[i] = 2 * diff * scale
		}
		t.backprop(delta)
	}
	t.Opt.Step(t.Net, t.gradW, t.gradB)
	return loss / totalW
}

// PolicyGradStep performs one step of REINFORCE-style training: for each
// sample, the gradient of -advantage*log(pi(action|x)) - entropyCoeff*H(pi)
// is accumulated, then the optimizer steps once. Used by the Pensieve
// reproduction. Returns the mean policy loss (excluding the entropy bonus).
func (t *Trainer) PolicyGradStep(xs [][]float64, actions []int, advantages []float64, entropyCoeff float64) float64 {
	if len(xs) != len(actions) || len(xs) != len(advantages) {
		panic("nn: PolicyGradStep length mismatch")
	}
	if len(xs) == 0 {
		return 0
	}
	t.zeroGrads()
	n := float64(len(xs))
	loss := 0.0
	delta := make([]float64, t.Net.OutputSize())
	for s, x := range xs {
		logits := t.Net.ForwardInto(t.ws, x)
		Softmax(t.probs, logits)
		a := actions[s]
		adv := advantages[s]
		p := t.probs[a]
		if p < 1e-300 {
			p = 1e-300
		}
		loss += -adv * math.Log(p)
		// d/dlogits of -adv*log p_a  =  adv*(p - onehot_a)
		for i, pi := range t.probs {
			delta[i] = adv * pi / n
			// entropy-bonus gradient: d/dlogits of -H(p) is
			// p_i*(log p_i + H); we *add* coeff * that to move
			// toward higher entropy... i.e., we minimize
			// -coeff*H, whose gradient is coeff*p_i*(log p_i + H).
			if entropyCoeff != 0 && pi > 0 {
				h := Entropy(t.probs)
				delta[i] += entropyCoeff * pi * (math.Log(pi) + h) / n
			}
		}
		delta[a] -= adv / n
		t.backprop(delta)
	}
	t.Opt.Step(t.Net, t.gradW, t.gradB)
	return loss / n
}

// evalRows is the row-block size batched dataset evaluation uses: big
// enough to amortize per-call overhead, small enough that the activation
// matrices of a 64-wide hidden layer stay in L1/L2.
const evalRows = 64

// forEachLogitRow runs the dataset through net in batches and calls visit
// with each sample's index and logit row, through the net's packed snapshot
// like every other inference consumer.
func forEachLogitRow(net *MLP, xs [][]float64, visit func(s int, logits []float64)) {
	rows := evalRows
	if len(xs) < rows {
		rows = len(xs)
	}
	nIn, nOut := net.InputSize(), net.OutputSize()
	packed := net.Packed()
	ws := packed.NewBatchWorkspace(rows)
	buf := make([]float64, rows*nIn)
	for at := 0; at < len(xs); at += rows {
		b := len(xs) - at
		if b > rows {
			b = rows
		}
		for r := 0; r < b; r++ {
			if len(xs[at+r]) != nIn {
				panic(fmt.Sprintf("nn: sample %d has %d features, want %d", at+r, len(xs[at+r]), nIn))
			}
			copy(buf[r*nIn:(r+1)*nIn], xs[at+r])
		}
		logits := packed.ForwardBatchInto(ws, buf[:b*nIn], b)
		for r := 0; r < b; r++ {
			visit(at+r, logits[r*nOut:(r+1)*nOut])
		}
	}
}

// CrossEntropy evaluates the mean cross-entropy loss (nats) of net on a
// labeled dataset without training, one batched forward pass per row block.
// It is the metric used in the paper's Figure 7 TTP ablation.
func CrossEntropy(net *MLP, xs [][]float64, labels []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	probs := make([]float64, net.OutputSize())
	loss := 0.0
	forEachLogitRow(net, xs, func(s int, logits []float64) {
		Softmax(probs, logits)
		p := probs[labels[s]]
		if p < 1e-300 {
			p = 1e-300
		}
		loss -= math.Log(p)
	})
	return loss / float64(len(xs))
}

// Accuracy returns the fraction of samples whose argmax prediction matches
// the label.
func Accuracy(net *MLP, xs [][]float64, labels []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	hit := 0
	forEachLogitRow(net, xs, func(s int, logits []float64) {
		if ArgMax(logits) == labels[s] {
			hit++
		}
	})
	return float64(hit) / float64(len(xs))
}
