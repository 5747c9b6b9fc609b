package nn

import (
	"fmt"
	"math"
	"math/bits"
)

// The portable bodies of the kernel primitives. amd64 without AVX2 and every
// other GOARCH run them; on amd64 with AVX2 they are the oracle the assembly
// bodies are tested against, bit for bit. Each one states the contract its
// assembly twin keeps: which sum runs in which order, one rounding per
// operation.

// affineRowTGo computes one affine row over input-major weights:
//
//	dst[o] = bias[o] + Σ_i wt[i*nOut+o]·x[i*xStride]    (o < nOut, i < nIn)
//
// with every output accumulated in ascending i from its bias. Besides the
// forward pass (x a sample, wt the transposed weights, xStride 1) this one
// sum is a gradient row (x a delta column at stride nOut, wt the layer's
// input matrix), a bias gradient (x all ones, wt the delta matrix) and a
// propagated delta (x a delta row, wt the weights as stored).
func affineRowTGo(dst, bias, x, wt []float64, nIn, nOut, xStride int) {
	o := 0
	for ; o+4 <= nOut; o += 4 {
		a0, a1, a2, a3 := bias[o], bias[o+1], bias[o+2], bias[o+3]
		for i := 0; i < nIn; i++ {
			xi := x[i*xStride]
			w := wt[i*nOut+o : i*nOut+o+4]
			a0 += float64(w[0] * xi)
			a1 += float64(w[1] * xi)
			a2 += float64(w[2] * xi)
			a3 += float64(w[3] * xi)
		}
		dst[o], dst[o+1], dst[o+2], dst[o+3] = a0, a1, a2, a3
	}
	for ; o < nOut; o++ {
		a := bias[o]
		for i := 0; i < nIn; i++ {
			a += float64(wt[i*nOut+o] * x[i*xStride])
		}
		dst[o] = a
	}
}

// affineRowTLiveGo is affineRowTGo over the live inputs alone:
//
//	dst[o] = bias[o] + Σ_{i live} wt[i*nOut+o]·x[i*xStride]    (o < nOut)
//
// where input i is live when bit i%64 of live[i/64] is set; every output
// still takes its terms in ascending i from its bias, one rounding per
// multiply and per add. Bits at or past nIn must be clear. The trainer
// leaves out only terms it has certified to be w·(±0) = ±0 on an
// accumulator that cannot be -0, which adds them without changing a bit
// (see Trainer.forward), so it equals affineRowTGo there.
func affineRowTLiveGo(dst, bias, x, wt []float64, live []uint64, nIn, nOut, xStride int) {
	words := live[:(nIn+63)/64]
	o := 0
	for ; o+4 <= nOut; o += 4 {
		a0, a1, a2, a3 := bias[o], bias[o+1], bias[o+2], bias[o+3]
		for k, m := range words {
			for ; m != 0; m &= m - 1 {
				i := k*64 + bits.TrailingZeros64(m)
				xi := x[i*xStride]
				w := wt[i*nOut+o : i*nOut+o+4]
				a0 += float64(w[0] * xi)
				a1 += float64(w[1] * xi)
				a2 += float64(w[2] * xi)
				a3 += float64(w[3] * xi)
			}
		}
		dst[o], dst[o+1], dst[o+2], dst[o+3] = a0, a1, a2, a3
	}
	for ; o < nOut; o++ {
		a := bias[o]
		for k, m := range words {
			for ; m != 0; m &= m - 1 {
				i := k*64 + bits.TrailingZeros64(m)
				a += float64(wt[i*nOut+o] * x[i*xStride])
			}
		}
		dst[o] = a
	}
}

// checkLive panics unless live holds the (nIn+63)/64 words of an nIn-input
// mask with no bit set at or past nIn: the assembly bodies read those words
// through a bare pointer and trust every set bit to name an input.
func checkLive(live []uint64, nIn int) {
	words := (nIn + 63) / 64
	if words == 0 {
		return
	}
	if len(live) < words || (nIn%64 != 0 && live[words-1]>>(nIn%64) != 0) {
		panic(fmt.Sprintf("nn: live mask of %d words for %d inputs, or a bit past the last input", len(live), nIn))
	}
}

// liveMaskGo writes the live-unit masks of a rows × width matrix z of
// pre-activations: row s gets (width+63)/64 words at mask[s*words:], bit o
// set where !(z[s*width+o] <= 0) — z > 0 or NaN, the units whose ReLU
// output or backward delta may be non-zero — and every other bit clear,
// those past width included.
func liveMaskGo(mask []uint64, z []float64, rows, width int) {
	words := (width + 63) / 64
	for s := 0; s < rows; s++ {
		row := mask[s*words : (s+1)*words]
		clear(row)
		for o, v := range z[s*width : (s+1)*width] {
			if !(v <= 0) {
				row[o/64] |= 1 << (o % 64)
			}
		}
	}
}

// allFiniteGo reports whether no element of v is ±Inf or NaN.
func allFiniteGo(v []float64) bool {
	for _, x := range v {
		if x-x != 0 { // NaN exactly for ±Inf and NaN
			return false
		}
	}
	return true
}

// reluCopyGo writes relu(src) into dst: positives pass through; negatives,
// -0 and NaN become +0 (reluInPlace's rule, out of place).
func reluCopyGo(dst, src []float64) {
	for i, v := range src {
		if v > 0 {
			dst[i] = v
		} else {
			dst[i] = 0
		}
	}
}

// maskNonPosGo zeroes d where the pre-activation z is <= 0 — the backward
// ReLU mask. A NaN pre-activation keeps its delta.
func maskNonPosGo(d, z []float64) {
	for i, zv := range z {
		if zv <= 0 {
			d[i] = 0
		}
	}
}

// adamConsts is one Adam step's per-step constants, in the order the
// assembly body reads them.
type adamConsts struct {
	b1, ob1 float64 // beta1, 1-beta1
	b2, ob2 float64 // beta2, 1-beta2
	c1, c2  float64 // bias corrections 1-beta1^t, 1-beta2^t
	lr, eps float64
}

// adamStepGo is one fused Adam pass over a parameter slab and its gradient
// and moment slabs.
func adamStepGo(p, g, m, v []float64, k *adamConsts) {
	for i := range p {
		m[i] = float64(k.b1*m[i]) + float64(k.ob1*g[i])
		v[i] = float64(k.b2*v[i]) + float64(k.ob2*g[i]*g[i])
		mh := m[i] / k.c1
		vh := v[i] / k.c2
		p[i] -= k.lr * mh / (math.Sqrt(vh) + k.eps)
	}
}

// shiftedAccumGo adds scaled, shifted windows of src onto the tail of dst:
// for each k in ascending order whose p[k] is not zero (±0 both skip, NaN
// does not) and whose lo[k] is below len(dst),
//
//	dst[i] += p[k]·src[i+off[k]]    (lo[k] <= i < len(dst))
//
// so every dst element takes its terms in ascending k, each one multiply and
// one add. It is an expectation over outcomes k of a value row read off[k]
// bins away, for the destinations at or past lo[k] — the model-predictive
// planner's continuation term. For every k with lo[k] below len(dst),
// whatever its p[k], lo[k] and lo[k]+off[k] must not be negative and src must
// reach len(dst)+off[k].
func shiftedAccumGo(dst, src, p []float64, lo, off []int32) {
	for k, pk := range p {
		l := int(lo[k])
		if pk == 0 || l >= len(dst) {
			continue
		}
		d := dst[l:]
		s := src[l+int(off[k]):][:len(d)]
		for i, v := range s {
			d[i] += float64(pk * v)
		}
	}
}

// maxPlaneGo is a running maximum over len(c) rows of base, each shifted by
// its own constant:
//
//	dst[i] = max_q (c[q] + base[q*stride+i])    (i < len(dst), q < len(c))
//
// taken as "start from q = 0, replace when v > dst[i]" in ascending q: the
// first of equal values stays (so does +0 against -0), a NaN candidate never
// replaces, and a NaN at q = 0 is replaced by nothing. len(c) must be at
// least 1.
func maxPlaneGo(dst, base, c []float64, stride int) {
	for i, b := range base[:len(dst)] {
		dst[i] = c[0] + b
	}
	for q := 1; q < len(c); q++ {
		cq := c[q]
		for i, b := range base[q*stride:][:len(dst)] {
			if v := cq + b; v > dst[i] {
				dst[i] = v
			}
		}
	}
}
