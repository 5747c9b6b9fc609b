package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// evalRows is the row-block size batched dataset evaluation uses: big
// enough to amortize per-call overhead, small enough that the activation
// matrices of a 64-wide hidden layer stay in L1/L2.
const evalRows = 64

// forEachLogitRow runs the dataset through net in batches and calls visit
// with each sample's index and logit row, through the net's packed snapshot
// like every inference consumer. It and the two sweeps below have only test
// callers (the TTP is scored by core.EvaluateTransTimeMode), so they live
// here.
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
		logits := packed.forward(ws, buf[:b*nIn], b, affineRowT)
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

// evalFixture builds a random net plus a labeled dataset big enough to
// span several evaluation row blocks (and a ragged tail).
func evalFixture(t *testing.T, seed int64) (*MLP, [][]float64, []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := NewMLP(rng, 22, 64, 64, 21)
	n := 3*evalRows + 17
	xs := make([][]float64, n)
	labels := make([]int, n)
	for i := range xs {
		x := make([]float64, net.InputSize())
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		xs[i] = x
		labels[i] = rng.Intn(net.OutputSize())
	}
	return net, xs, labels
}

// TestCrossEntropyAccuracyPackedMatchesPortable: the evaluation sweeps run
// on the packed (SIMD) kernel; this pins them bitwise to a reference
// computed per sample with the dot-product oracle, forwardOne.
func TestCrossEntropyAccuracyPackedMatchesPortable(t *testing.T) {
	net, xs, labels := evalFixture(t, 41)

	probs := make([]float64, net.OutputSize())
	var refLoss float64
	refHit := 0
	for s, x := range xs {
		logits := forwardOne(net, x)
		Softmax(probs, logits)
		p := probs[labels[s]]
		if p < 1e-300 {
			p = 1e-300
		}
		refLoss -= math.Log(p)
		if ArgMax(logits) == labels[s] {
			refHit++
		}
	}
	refCE := refLoss / float64(len(xs))
	refAcc := float64(refHit) / float64(len(xs))

	if ce := CrossEntropy(net, xs, labels); ce != refCE {
		t.Fatalf("CrossEntropy = %v, portable reference = %v (must be bitwise identical)", ce, refCE)
	}
	if acc := Accuracy(net, xs, labels); acc != refAcc {
		t.Fatalf("Accuracy = %v, portable reference = %v (must be bitwise identical)", acc, refAcc)
	}
}
