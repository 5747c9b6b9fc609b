package nn

import (
	"fmt"

	"puffer/internal/obs"
)

// Inference-kernel metrics (write-only; see the obs package contract). Every
// engine's forward passes land here — session, fleet, serve and dist alike —
// but a dist worker's registry dies with the worker, so the coordinator
// sees none of its kernel time (ROADMAP item 5).
var (
	packedForwardNS = obs.Default.Histogram("nn_packed_forward_ns")
	packedRowsTotal = obs.Default.Counter("nn_packed_rows_total")
)

// PackedMLP is an immutable inference-time snapshot of an MLP, and the form
// every inference consumer runs: each layer's weights are copied into a
// transposed slab (input-major, so a kernel sweeping 4-32 outputs at a time
// loads unit-stride vectors), and biases are copied alongside. Because it is
// a snapshot, results never depend on later mutation of the source network;
// MLP.Packed keeps one per network and rebuilds it only after the network's
// parameters change, so a deployed model is transposed once per rotation.
// Safe for concurrent use with a workspace per caller.
//
// Its forward pass is the package's one batched forward: every row of every
// layer is one affineRowT, the trainer's primitive, which runs an assembly
// body on amd64 with AVX2 and the portable affineRowTGo everywhere else.
// Both keep each output's accumulation in ascending input order with a
// separate multiply and add rounding per term (no FMA contraction), so the
// logits are bitwise identical on every body and equal a plain dot product
// over the source network's W and B.
type PackedMLP struct {
	sizes []int
	// wt[l] is layer l's transposed weight matrix, input-major:
	// wt[l][i*nOut+o] == W[l][o*nIn+i].
	wt [][]float64
	// bias[l] is a copy of B[l].
	bias [][]float64
}

// Packed returns the network's packed snapshot, building it on first use
// and after every parameter write (Optimizer.Step and Pack drop the cached
// one; Clone and decoded models start without one). It is the one entry
// point to inference: a deployed model is transposed once, however many
// sessions, workers and evaluation sweeps share it. Safe for concurrent
// use by readers of the same net — racing first calls build bitwise-equal
// snapshots and all but one are discarded.
func (m *MLP) Packed() *PackedMLP {
	if p := m.packed.Load(); p != nil {
		return p
	}
	p := m.NewPacked()
	if m.packed.CompareAndSwap(nil, p) {
		return p
	}
	if won := m.packed.Load(); won != nil {
		return won
	}
	return p // the winner was dropped by a write since; p is as current
}

// NewPacked builds a fresh, uncached snapshot of the network. Callers want
// Packed; this is its builder, and what tests and benchmarks use to hold a
// snapshot of their own.
func (m *MLP) NewPacked() *PackedMLP {
	p := &PackedMLP{
		sizes: append([]int(nil), m.Sizes...),
		wt:    make([][]float64, m.NumLayers()),
		bias:  make([][]float64, m.NumLayers()),
	}
	for l := 0; l < m.NumLayers(); l++ {
		nIn, nOut := m.Sizes[l], m.Sizes[l+1]
		p.wt[l] = make([]float64, nIn*nOut)
		transposeInto(p.wt[l], m.W[l], nIn, nOut)
		p.bias[l] = append([]float64(nil), m.B[l]...)
	}
	return p
}

// transposeInto writes the output-major nOut × nIn weight matrix w into wt
// input-major: wt[i*nOut+o] = w[o*nIn+i].
func transposeInto(wt, w []float64, nIn, nOut int) {
	// Eight outputs at a time, so each 64-byte line of wt is written whole
	// while it is hot (the trainer re-transposes every step).
	o := 0
	for ; o+8 <= nOut; o += 8 {
		for i := 0; i < nIn; i++ {
			dst := wt[i*nOut+o : i*nOut+o+8]
			src := w[o*nIn+i:]
			dst[0], dst[1], dst[2], dst[3] = src[0], src[nIn], src[2*nIn], src[3*nIn]
			dst[4], dst[5], dst[6], dst[7] = src[4*nIn], src[5*nIn], src[6*nIn], src[7*nIn]
		}
	}
	for ; o < nOut; o++ {
		for i, v := range w[o*nIn : (o+1)*nIn] {
			wt[i*nOut+o] = v
		}
	}
}

// InputSize returns the expected input vector length.
func (p *PackedMLP) InputSize() int { return p.sizes[0] }

// OutputSize returns the output vector length.
func (p *PackedMLP) OutputSize() int { return p.sizes[len(p.sizes)-1] }

// NewBatchWorkspace allocates a batch workspace for this snapshot's shape.
func (p *PackedMLP) NewBatchWorkspace(maxRows int) *BatchWorkspace {
	return newBatchWorkspace(p.sizes, maxRows)
}

// ForwardBatchInto runs rows samples through the packed network in one pass
// per layer. xs is the rows × InputSize input matrix, row-major and flat; it
// is read but not copied or modified. The returned rows × OutputSize logit
// matrix aliases the workspace and is valid until the next batched call on
// the same workspace. Row r of the result is bitwise identical to a call on
// row r alone.
func (p *PackedMLP) ForwardBatchInto(ws *BatchWorkspace, xs []float64, rows int) []float64 {
	return p.forward(ws, xs, rows, affineRowT)
}

// rowBody is the signature of affineRowT and its bodies.
type rowBody func(dst, bias, x, wt []float64, nIn, nOut, xStride int)

// forward is ForwardBatchInto with affine as every row's body: affineRowT
// in production, affineRowTGo where a caller or test wants the portable
// body whatever the machine.
func (p *PackedMLP) forward(ws *BatchWorkspace, xs []float64, rows int, affine rowBody) []float64 {
	if rows <= 0 {
		panic(fmt.Sprintf("nn: ForwardBatchInto rows = %d, want >= 1", rows))
	}
	if len(xs) != rows*p.InputSize() {
		panic(fmt.Sprintf("nn: batch input length %d, want %d rows x %d", len(xs), rows, p.InputSize()))
	}
	ws.ensure(p.sizes, rows)
	in := xs
	last := len(p.sizes) - 2
	for l := 0; l <= last; l++ {
		nIn, nOut := p.sizes[l], p.sizes[l+1]
		out := ws.acts[l][:rows*nOut]
		bias, wt := p.bias[l], p.wt[l]
		for r := 0; r < rows; r++ {
			affine(out[r*nOut:], bias, in[r*nIn:], wt, nIn, nOut, 1)
		}
		if l != last {
			reluVec(out)
		}
		in = out
	}
	return in
}

// PredictDistBatch runs a packed batched forward pass and softmaxes each row
// of logits into dst, a rows × OutputSize row-major matrix (allocated when
// nil).
func (p *PackedMLP) PredictDistBatch(ws *BatchWorkspace, xs []float64, rows int, dst []float64) []float64 {
	t0 := obs.Now()
	dst = p.predictDist(ws, xs, rows, dst, affineRowT)
	packedForwardNS.ObserveSince(t0)
	packedRowsTotal.Add(int64(rows))
	// The kernel span names the deepest stage of a traced decision; it
	// parents under the flush owner's designated trace (one flush serves
	// many sessions, so the first traced decision of the batch owns it).
	if tr := obs.Tracing(); tr != nil {
		if trace, parent := obs.FlushTrace(); trace != 0 {
			tr.Record(obs.Span{Trace: trace, ID: tr.NewSpanID(), Parent: parent,
				Name: "kernel", Start: t0, Dur: obs.SinceNS(t0),
				Attrs: []obs.Attr{{Key: "rows", Val: int64(rows)}}})
		}
	}
	return dst
}

// predictDist is PredictDistBatch's work, unmetered, with affine as the
// forward pass's row body.
func (p *PackedMLP) predictDist(ws *BatchWorkspace, xs []float64, rows int, dst []float64, affine rowBody) []float64 {
	logits := p.forward(ws, xs, rows, affine)
	nOut := p.OutputSize()
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

// Accelerated reports whether the packed path runs a SIMD body of
// affineRowT on this machine (false means it runs the portable body,
// affineRowTGo — the same bits, without the speedup).
func Accelerated() bool { return useAVX2 }
