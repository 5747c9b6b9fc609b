package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The kernel primitives against their portable bodies and plain scalar sums,
// bit for bit, at every vector-width remainder and over the values a float64
// can surprise with. affine_amd64_test.go adds each assembly body by name.

var kernelLens = []int{0, 1, 3, 4, 7, 8, 9, 31, 32, 33, 64, 65}

var specials = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 2.2e-308, -2.2e-308, // subnormals and the smallest normals
	1, -1, 1e300, -1e300, 1e-300,
}

// mixed returns n values: the specials (in a seed-dependent rotation) with
// normal draws between them.
func mixed(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	at := rng.Intn(len(specials))
	for i := range v {
		if i%3 == 0 {
			v[i] = specials[(at+i/3)%len(specials)]
		} else {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// sameFloats fails unless got and want agree bit for bit. NaNs match any NaN:
// which of two NaN operands an instruction propagates depends on operand
// order, which the contract does not fix.
func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: element %d = %x (%v), want %x (%v)", what, i,
				math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

// forEachAffineCase runs visit over the affineRowT table: the strides the
// trainer uses (1: forward and delta propagation; the output and hidden
// widths: a delta column), every output-block remainder, a few input counts,
// with the plain ascending-order scalar sum as want.
func forEachAffineCase(visit func(what string, bias, x, wt, want []float64, nIn, nOut, xStride int)) {
	rng := rand.New(rand.NewSource(31))
	for _, xStride := range []int{1, 21, 64} {
		for _, nOut := range kernelLens[1:] {
			for _, nIn := range []int{1, 2, 22, 64} {
				bias := mixed(rng, nOut)
				x := mixed(rng, (nIn-1)*xStride+1)
				wt := mixed(rng, nIn*nOut)
				want := make([]float64, nOut)
				for o := range want {
					acc := bias[o]
					for i := 0; i < nIn; i++ {
						acc += wt[i*nOut+o] * x[i*xStride]
					}
					want[o] = acc
				}
				visit(fmt.Sprintf("stride %d nIn %d nOut %d", xStride, nIn, nOut), bias, x, wt, want, nIn, nOut, xStride)
			}
		}
	}
}

// TestAffineRowTStride: the portable body and whatever body affineRowT
// dispatches to on this machine, against the scalar sum.
func TestAffineRowTStride(t *testing.T) {
	forEachAffineCase(func(what string, bias, x, wt, want []float64, nIn, nOut, xStride int) {
		got := make([]float64, nOut)
		affineRowTGo(got, bias, x, wt, nIn, nOut, xStride)
		sameFloats(t, "portable "+what, got, want)
		clear(got)
		affineRowT(got, bias, x, wt, nIn, nOut, xStride)
		sameFloats(t, "dispatched "+what, got, want)
	})
	// nIn == 0 leaves the bias; nOut == 0 writes nothing.
	got := []float64{7, 7}
	affineRowT(got, []float64{1, 2}, nil, nil, 0, 2, 1)
	sameFloats(t, "nIn 0", got, []float64{1, 2})
	affineRowT(nil, nil, []float64{1}, nil, 1, 0, 1)
}

// TestElementwiseKernelsMatchPortable: the ReLU copy, the ReLU mask and the
// Adam step (256-bit assembly is their only SIMD body) against portable, at
// every length.
func TestElementwiseKernelsMatchPortable(t *testing.T) {
	if !useAVX2 {
		t.Skip("no SIMD on this machine")
	}
	rng := rand.New(rand.NewSource(32))
	for _, n := range kernelLens {
		for rep := 0; rep < 4; rep++ {
			src := mixed(rng, n)
			want, got := make([]float64, n), make([]float64, n)
			reluCopyGo(want, src)
			reluCopy(got, src)
			sameFloats(t, fmt.Sprintf("reluCopy n=%d", n), got, want)

			want = mixed(rng, n)
			got = slices.Clone(want)
			maskNonPosGo(want, src)
			maskNonPos(got, src)
			sameFloats(t, fmt.Sprintf("maskNonPos n=%d", n), got, want)

			k := &adamConsts{b1: 0.9, ob1: 1 - 0.9, b2: 0.999, ob2: 1 - 0.999,
				c1: 1 - math.Pow(0.9, 3), c2: 1 - math.Pow(0.999, 3), lr: 1e-3, eps: 1e-8}
			p, g, m := mixed(rng, n), mixed(rng, n), mixed(rng, n)
			v := mixed(rng, n)
			for i := range v {
				if rep%2 == 0 {
					v[i] = math.Abs(v[i]) // the reachable state: second moments are sums of squares
				}
			}
			p2, m2, v2 := slices.Clone(p), slices.Clone(m), slices.Clone(v)
			adamStepGo(p, g, m, v, k)
			adamStep(p2, g, m2, v2, k)
			sameFloats(t, fmt.Sprintf("adam p n=%d", n), p2, p)
			sameFloats(t, fmt.Sprintf("adam m n=%d", n), m2, m)
			sameFloats(t, fmt.Sprintf("adam v n=%d", n), v2, v)
		}
	}
}

// forEachPlannerCase runs visit over the planner primitives' table: every
// destination length 0..65 against every source offset 0..9 (the shifted
// window is never 32-byte aligned with its destination), over the mixed
// values. The shifted-accumulate operands are p, lo, off over src (lo
// ascending from 0, every fourth p a zero of either sign, one off negative
// where lo allows it); the max-plane operands are c over base at the given
// stride, every fifth case drawn only from ±0, NaN and ±Inf.
func forEachPlannerCase(visit func(what string, n int, dst0, src, p []float64, lo, off []int32, base, c []float64, stride int)) {
	rng := rand.New(rand.NewSource(33))
	for n := 0; n <= 65; n++ {
		for shift := 0; shift <= 9; shift++ {
			const nK = 7
			p := mixed(rng, nK)
			lo, off := make([]int32, nK), make([]int32, nK)
			for k := range lo {
				lo[k] = int32(k * (n + 2) / nK) // the last ones reach past n: those k do nothing
				off[k] = int32(shift)
				if k == nK-1 {
					p[k] = math.NaN() // NaN != 0: a NaN weight runs
				} else if k%4 == 1 {
					p[k] = math.Copysign(0, float64(k%8)-2)
				}
			}
			if lo[2] > 0 {
				off[2] = -1
			}
			nQ := 1 + (n+shift)%4
			stride := n + shift%3
			base, c := mixed(rng, (nQ-1)*stride+n), mixed(rng, nQ)
			if shift%5 == 4 {
				// Nothing but ties, signed zeros, NaNs and infinities: the
				// cases where "v > cur" and a plain max differ.
				for i := range base {
					base[i] = specials[rng.Intn(5)]
				}
				for q := range c {
					c[q] = specials[rng.Intn(2)]
				}
			}
			visit(fmt.Sprintf("n %d shift %d", n, shift), n,
				mixed(rng, n), mixed(rng, n+shift), p, lo, off, base, c, stride)
		}
	}
}

// TestPlannerKernelsMatchPortable: whatever bodies ShiftedAccum and MaxPlane
// dispatch to on this machine, against the portable bodies, and the portable
// bodies against the plain loops they stand for.
func TestPlannerKernelsMatchPortable(t *testing.T) {
	forEachPlannerCase(func(what string, n int, dst0, src, p []float64, lo, off []int32, base, c []float64, stride int) {
		want := slices.Clone(dst0)
		for i := range want {
			for k, pk := range p {
				if pk != 0 && i >= int(lo[k]) {
					want[i] += pk * src[i+int(off[k])]
				}
			}
		}
		got := slices.Clone(dst0)
		shiftedAccumGo(got, src, p, lo, off)
		sameFloats(t, "shiftedAccum portable "+what, got, want)
		got = slices.Clone(dst0)
		ShiftedAccum(got, src, p, lo, off)
		sameFloats(t, "ShiftedAccum "+what, got, want)

		for i := range want {
			want[i] = c[0] + base[i]
			for q := 1; q < len(c); q++ {
				if v := c[q] + base[q*stride+i]; v > want[i] {
					want[i] = v
				}
			}
		}
		maxPlaneGo(got, base, c, stride)
		sameFloats(t, "maxPlane portable "+what, got, want)
		clear(got)
		MaxPlane(got, base, c, stride)
		sameFloats(t, "MaxPlane "+what, got, want)
	})
}
