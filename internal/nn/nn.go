package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
)

// MLP is a fully-connected multi-layer perceptron. Hidden layers use ReLU;
// the output layer is linear (interpret the outputs as logits for
// classification or as raw values for regression).
//
// Fields are exported for gob serialization and are read-only outside this
// package. That rule is load-bearing: inference runs on a cached packed
// snapshot (see Packed) that only this package's writers — Optimizer.Step
// and Pack — know to drop, so a weight written from outside leaves every
// consumer serving the old values. Do not reassign the W or B slices
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
	// memory monotonically. Nil for models built by hand or decoded from
	// gob until Pack runs.
	flat []float64

	// packed caches the snapshot Packed returns. Nil after construction,
	// Clone, gob decode and every in-package parameter write.
	packed atomic.Pointer[PackedMLP]
}

// NewMLP constructs an MLP with He-initialized weights and zero biases.
// sizes must have at least two entries (input and output width).
func NewMLP(rng *rand.Rand, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("nn: NewMLP needs at least input and output sizes, got %v", sizes))
	}
	for _, s := range sizes {
		if s <= 0 {
			panic(fmt.Sprintf("nn: NewMLP layer sizes must be positive, got %v", sizes))
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

// Pack validates the model's structure (Sizes against the lengths of W and
// B) and re-homes its parameters into the contiguous slab layout, values
// preserved exactly. It is the one validated way in for a model this package
// did not build: Load runs it, and anything that gob-decodes an MLP directly
// must call it before using the model — a decoded model is whatever bytes
// the file held.
func (m *MLP) Pack() error {
	if err := m.validate(); err != nil {
		return err
	}
	m.packed.Store(nil)
	w, b := m.W, m.B
	m.alloc()
	for l := range w {
		copy(m.W[l], w[l])
		copy(m.B[l], b[l])
	}
	return nil
}

// SameShape reports whether m and o have identical layer sizes (and can
// therefore share batch workspaces).
func (m *MLP) SameShape(o *MLP) bool { return sameSizes(m.Sizes, o.Sizes) }

// NumLayers returns the number of weight layers (len(Sizes)-1).
func (m *MLP) NumLayers() int { return len(m.Sizes) - 1 }

// InputSize returns the expected input vector length.
func (m *MLP) InputSize() int { return m.Sizes[0] }

// OutputSize returns the output vector length.
func (m *MLP) OutputSize() int { return m.Sizes[len(m.Sizes)-1] }

// NumParams returns the total number of scalar parameters.
func (m *MLP) NumParams() int {
	n := 0
	for l := range m.W {
		n += len(m.W[l]) + len(m.B[l])
	}
	return n
}

// Clone returns a deep copy of the network. Used to warm-start retraining
// from yesterday's model, as the paper does.
func (m *MLP) Clone() *MLP {
	c := &MLP{Sizes: append([]int(nil), m.Sizes...)}
	c.alloc()
	for l := range m.W {
		copy(c.W[l], m.W[l])
		copy(c.B[l], m.B[l])
	}
	return c
}

func sameSizes(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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
	if maxRows < 1 {
		maxRows = 1
	}
	ws := &BatchWorkspace{sizes: m.Sizes}
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

// ensure validates the workspace against m and guarantees room for rows.
func (ws *BatchWorkspace) ensure(m *MLP, rows int) {
	if !sameSizes(ws.sizes, m.Sizes) {
		panic("nn: batch workspace shape does not match network")
	}
	if rows > ws.rows {
		ws.grow(rows)
	}
}

// ForwardBatchInto runs rows samples through the network in one pass per
// layer. xs is the rows × InputSize input matrix, row-major and flat; it is
// read but not copied or modified. The returned rows × OutputSize logit
// matrix aliases the workspace and is valid until the next batched call on
// the same workspace. Row r of the result is bitwise identical to a call on
// row r alone.
//
// This is the portable kernel: PackedMLP's fallback where there is no SIMD
// kernel, and the oracle the differential tests hold the packed path to.
// Inference callers use Packed().ForwardBatchInto.
func (m *MLP) ForwardBatchInto(ws *BatchWorkspace, xs []float64, rows int) []float64 {
	if rows <= 0 {
		panic(fmt.Sprintf("nn: ForwardBatchInto rows = %d, want >= 1", rows))
	}
	if len(xs) != rows*m.InputSize() {
		panic(fmt.Sprintf("nn: batch input length %d, want %d rows x %d", len(xs), rows, m.InputSize()))
	}
	ws.ensure(m, rows)
	in := xs
	last := m.NumLayers() - 1
	for l := 0; l <= last; l++ {
		out := ws.acts[l][:rows*m.Sizes[l+1]]
		affineBatch(out, in, m.W[l], m.B[l], rows, m.Sizes[l], m.Sizes[l+1])
		if l != last {
			reluInPlace(out)
		}
		in = out
	}
	return in
}

// PredictDistBatch runs a batched forward pass and softmaxes each row of
// logits into dst, a rows × OutputSize row-major matrix (allocated when
// nil).
func (m *MLP) PredictDistBatch(ws *BatchWorkspace, xs []float64, rows int, dst []float64) []float64 {
	logits := m.ForwardBatchInto(ws, xs, rows)
	nOut := m.OutputSize()
	if dst == nil {
		dst = make([]float64, rows*nOut)
	}
	if len(dst) != rows*nOut {
		panic(fmt.Sprintf("nn: batch dist length %d, want %d rows x %d", len(dst), rows, nOut))
	}
	for r := 0; r < rows; r++ {
		Softmax(dst[r*nOut:(r+1)*nOut], logits[r*nOut:(r+1)*nOut])
	}
	return dst
}
