package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
)

// MLP is a fully-connected multi-layer perceptron. Hidden layers use ReLU;
// the output layer is linear (interpret the outputs as logits for
// classification or as raw values for regression).
//
// Fields are exported for reading and are read-only outside this package.
// That rule is load-bearing: inference runs on a cached packed snapshot
// (see Packed) that only this package's writer — Optimizer.Step — knows to
// drop, so a weight written from outside leaves every consumer serving the
// old values. Do not reassign the W or B slices
// either: they alias a single contiguous parameter slab (cache-friendly for
// the batched kernel), and replacing a slice header silently detaches it
// from the slab. An MLP holds an atomic and must not be copied by value.
type MLP struct {
	// Sizes holds the layer widths, input first. A net with no hidden
	// layers (len(Sizes) == 2) is an affine model — the "linear
	// regression" ablation in the paper is exactly this.
	Sizes []int
	// W[l] is the weight matrix of layer l, row-major with shape
	// Sizes[l+1] x Sizes[l].
	W [][]float64
	// B[l] is the bias vector of layer l, length Sizes[l+1].
	B [][]float64

	// flat is the contiguous backing array that W and B alias, laid out
	// layer by layer as W[0] B[0] W[1] B[1] ... so a forward pass walks
	// memory monotonically. Every MLP this package hands out has one:
	// NewMLP, Clone and Decode all build it.
	flat []float64

	// packed caches the snapshot Packed returns. Nil after construction,
	// Clone, Decode and every in-package parameter write.
	packed atomic.Pointer[PackedMLP]
}

// NewMLP constructs an MLP with He-initialized weights and zero biases.
// sizes must have at least two entries (input and output width).
func NewMLP(rng *rand.Rand, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("nn: NewMLP needs at least input and output sizes, got %v", sizes))
	}
	for _, s := range sizes {
		if s <= 0 || s > MaxWidth {
			panic(fmt.Sprintf("nn: NewMLP layer sizes must be in [1, %d], got %v", MaxWidth, sizes))
		}
	}
	m := &MLP{Sizes: append([]int(nil), sizes...)}
	m.alloc()
	for l := 0; l < len(sizes)-1; l++ {
		// He initialization suits ReLU hidden layers and is harmless
		// for the linear output layer.
		std := math.Sqrt(2.0 / float64(sizes[l]))
		for i := range m.W[l] {
			m.W[l][i] = rng.NormFloat64() * std
		}
	}
	return m
}

// alloc builds the parameter slab for m.Sizes and points W/B into it.
func (m *MLP) alloc() {
	total := 0
	for l := 0; l < len(m.Sizes)-1; l++ {
		total += m.Sizes[l+1]*m.Sizes[l] + m.Sizes[l+1]
	}
	m.flat = make([]float64, total)
	m.W, m.B = m.layerViews(m.flat)
}

// layerViews carves a slab laid out like the parameter slab (W[0] B[0] W[1]
// B[1] ...) into per-layer weight and bias views. The trainer's gradient
// slab gets its views here too, so the two layouts cannot drift apart.
func (m *MLP) layerViews(slab []float64) (w, b [][]float64) {
	layers := len(m.Sizes) - 1
	w = make([][]float64, layers)
	b = make([][]float64, layers)
	at := 0
	for l := 0; l < layers; l++ {
		nw := m.Sizes[l+1] * m.Sizes[l]
		w[l] = slab[at : at+nw : at+nw]
		at += nw
		nb := m.Sizes[l+1]
		b[l] = slab[at : at+nb : at+nb]
		at += nb
	}
	return w, b
}

// SameShape reports whether m and o have identical layer sizes (and can
// therefore share batch workspaces).
func (m *MLP) SameShape(o *MLP) bool { return slices.Equal(m.Sizes, o.Sizes) }

// NumLayers returns the number of weight layers (len(Sizes)-1).
func (m *MLP) NumLayers() int { return len(m.Sizes) - 1 }

// InputSize returns the expected input vector length.
func (m *MLP) InputSize() int { return m.Sizes[0] }

// OutputSize returns the output vector length.
func (m *MLP) OutputSize() int { return m.Sizes[len(m.Sizes)-1] }

// NumParams returns the total number of scalar parameters.
func (m *MLP) NumParams() int { return len(m.flat) }

// Clone returns a deep copy of the network. Used to warm-start retraining
// from yesterday's model, as the paper does.
func (m *MLP) Clone() *MLP {
	c := &MLP{Sizes: append([]int(nil), m.Sizes...)}
	c.alloc()
	copy(c.flat, m.flat)
	return c
}

// BatchWorkspace holds flat row-major activation matrices for batched
// forward passes. One workspace can be shared by any number of networks with
// identical layer sizes (the TTP's per-horizon nets, for instance), as long
// as calls are sequential: it is not safe for concurrent use. The workspace
// grows to the largest batch it has seen and never allocates afterwards.
type BatchWorkspace struct {
	sizes []int
	rows  int
	// acts[l] is the rows × Sizes[l+1] output matrix of layer l.
	acts [][]float64
}

// NewBatchWorkspace allocates a batch workspace for this network's shape
// with capacity for maxRows samples per call. Passing a larger batch later
// grows the workspace (one-time reallocation).
func (m *MLP) NewBatchWorkspace(maxRows int) *BatchWorkspace {
	return newBatchWorkspace(m.Sizes, maxRows)
}

func newBatchWorkspace(sizes []int, maxRows int) *BatchWorkspace {
	if maxRows < 1 {
		maxRows = 1
	}
	ws := &BatchWorkspace{sizes: sizes}
	ws.grow(maxRows)
	return ws
}

func (ws *BatchWorkspace) grow(rows int) {
	ws.rows = rows
	ws.acts = make([][]float64, len(ws.sizes)-1)
	for l := range ws.acts {
		ws.acts[l] = make([]float64, rows*ws.sizes[l+1])
	}
}

// ensure validates the workspace against a network's layer sizes and
// guarantees room for rows.
func (ws *BatchWorkspace) ensure(sizes []int, rows int) {
	if !slices.Equal(ws.sizes, sizes) {
		panic("nn: batch workspace shape does not match network")
	}
	if rows > ws.rows {
		ws.grow(rows)
	}
}

// PredictDistBatch is PackedMLP.PredictDistBatch on m's snapshot with the
// portable row body, affineRowTGo, whatever the machine. Its one caller is
// the benchmark's portable-kernel reading; it leaves with ROADMAP item 1.
func (m *MLP) PredictDistBatch(ws *BatchWorkspace, xs []float64, rows int, dst []float64) []float64 {
	return m.Packed().predictDist(ws, xs, rows, dst, affineRowTGo)
}
