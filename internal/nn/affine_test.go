package nn

import (
	"encoding/binary"
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

// affineOuts are the output counts the affineRowT table covers: 1..40 (every
// remainder after a 16-wide block, the chain-count boundaries of both
// remainder passes at 8/9 and 24/25, the TTP's 21 and 22) and both sides of
// 64 and 96 (one and more full 32-wide blocks).
var affineOuts = func() []int {
	var outs []int
	for n := 1; n <= 40; n++ {
		outs = append(outs, n)
	}
	return append(outs, 63, 64, 65, 95, 96, 97)
}()

// forEachAffineCase runs visit over the affineRowT table: the strides the
// trainer uses (1: forward and delta propagation; the output and hidden
// widths: a delta column), affineOuts, a few input counts, with the plain
// ascending-order scalar sum as want.
func forEachAffineCase(visit func(what string, bias, x, wt, want []float64, nIn, nOut, xStride int)) {
	rng := rand.New(rand.NewSource(31))
	for _, xStride := range []int{1, 21, 64} {
		for _, nOut := range affineOuts {
			for _, nIn := range []int{1, 2, 22, 64} {
				bias := mixed(rng, nOut)
				x := mixed(rng, (nIn-1)*xStride+1)
				wt := mixed(rng, nIn*nOut)
				want := make([]float64, nOut)
				for o := range want {
					acc := bias[o]
					for i := 0; i < nIn; i++ {
						acc += float64(wt[i*nOut+o] * x[i*xStride])
					}
					want[o] = acc
				}
				visit(fmt.Sprintf("stride %d nIn %d nOut %d", xStride, nIn, nOut), bias, x, wt, want, nIn, nOut, xStride)
			}
		}
	}
}

// sentinel fills the slack past a kernel's destination; sentinelTail is as
// long as the widest vector block, so a store with any lane too many lands
// on it.
const (
	sentinel     = 7.25
	sentinelTail = 32
)

// withSentinel returns an n-element destination followed by the sentinel
// tail.
func withSentinel(n int) []float64 {
	dst := make([]float64, n+sentinelTail)
	for i := n; i < len(dst); i++ {
		dst[i] = sentinel
	}
	return dst
}

// checkSentinel fails if anything wrote past dst[n-1].
func checkSentinel(t *testing.T, what string, dst []float64, n int) {
	t.Helper()
	for i := n; i < len(dst); i++ {
		if dst[i] != sentinel {
			t.Fatalf("%s: wrote past dst[%d], at dst[%d]", what, n-1, i)
		}
	}
}

// TestAffineRowTStride: the portable body and whatever body affineRowT
// dispatches to on this machine, against the scalar sum, neither writing
// past dst[nOut-1].
func TestAffineRowTStride(t *testing.T) {
	forEachAffineCase(func(what string, bias, x, wt, want []float64, nIn, nOut, xStride int) {
		got := withSentinel(nOut)
		affineRowTGo(got, bias, x, wt, nIn, nOut, xStride)
		checkSentinel(t, "portable "+what, got, nOut)
		sameFloats(t, "portable "+what, got[:nOut], want)
		got = withSentinel(nOut)
		affineRowT(got, bias, x, wt, nIn, nOut, xStride)
		checkSentinel(t, "dispatched "+what, got, nOut)
		sameFloats(t, "dispatched "+what, got[:nOut], want)
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

			// allFinite over src, and up to and past its first non-finite
			// element.
			if got, want := allFinite(src), allFiniteGo(src); got != want {
				t.Fatalf("allFinite n=%d: %v, want %v", n, got, want)
			}
			for i := range src {
				if math.IsInf(src[i], 0) || math.IsNaN(src[i]) {
					if !allFinite(src[:i]) || allFinite(src[:i+1]) {
						t.Fatalf("allFinite n=%d: wrong at the first non-finite element %d", n, i)
					}
					break
				}
			}

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
	// liveMask over three rows of every width 1-80 (one and two mask words,
	// every eight-lane and four-lane tail) of the mixed values.
	for width := 1; width <= 80; width++ {
		const rows = 3
		z := mixed(rng, rows*width)
		words := rows * ((width + 63) / 64)
		want, got := make([]uint64, words), make([]uint64, words)
		for i := range got {
			got[i] = ^uint64(0) // every bit must be written
		}
		liveMaskGo(want, z, rows, width)
		liveMask(got, z, rows, width)
		if !slices.Equal(got, want) {
			t.Fatalf("liveMask %d×%d: %x, want %x", rows, width, got, want)
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
					want[i] += float64(pk * src[i+int(off[k])])
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

// liveBody is one body of the live-input affine row, by name, over slices;
// affine_amd64_test.go appends the assembly bodies this machine can run.
type liveBody struct {
	name string
	run  func(dst, bias, x, wt []float64, live []uint64, nIn, nOut, xStride int)
}

var liveBodies = []liveBody{{"portable", affineRowTLiveGo}, {"dispatched", affineRowTLive}}

// affineRowTListed is the live row's oracle: affineRowTGo over only the
// inputs live lists, packed in ascending order into a shorter x and wt.
func affineRowTListed(dst, bias, x, wt []float64, live []uint64, nIn, nOut, xStride int) {
	var xs, ws []float64
	n := 0
	for i := 0; i < nIn; i++ {
		if live[i/64]>>(i%64)&1 != 0 {
			xs = append(xs, x[i*xStride])
			xs = append(xs, make([]float64, xStride-1)...)
			ws = append(ws, wt[i*nOut:(i+1)*nOut]...)
			n++
		}
	}
	affineRowTGo(dst, bias, xs, ws, n, nOut, xStride)
}

// checkLiveBodies runs every live body on one case against the oracle, each
// into a destination with a sentinel tail.
func checkLiveBodies(t *testing.T, what string, bias, x, wt []float64, live []uint64, nIn, nOut, xStride int) {
	t.Helper()
	want := make([]float64, nOut)
	affineRowTListed(want, bias, x, wt, live, nIn, nOut, xStride)
	for _, body := range liveBodies {
		got := withSentinel(nOut)
		body.run(got, bias, x, wt, live, nIn, nOut, xStride)
		checkSentinel(t, body.name+" "+what, got, nOut)
		sameFloats(t, body.name+" "+what, got[:nOut], want)
	}
}

// TestAffineRowTLiveBodies: every live-input body this machine has against
// affineRowTGo restricted to the listed inputs, at output widths 1-80 (every
// block and masked-pass remainder of both vector widths), input counts on
// both sides of a mask word, x strides 1-3, lists from empty to full, and
// the float64 specials among the values.
func TestAffineRowTLiveBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for nOut := 1; nOut <= 80; nOut++ {
		for _, nIn := range []int{1, 2, 22, 63, 64, 65, 130} {
			for xStride := 1; xStride <= 3; xStride++ {
				bias := mixed(rng, nOut)
				x := mixed(rng, (nIn-1)*xStride+1)
				wt := mixed(rng, nIn*nOut)
				words := (nIn + 63) / 64
				for _, share := range []float64{0, 0.1, 0.5, 0.9, 1} {
					live := make([]uint64, words)
					for i := 0; i < nIn; i++ {
						if rng.Float64() < share || (share == 1) {
							live[i/64] |= 1 << (i % 64)
						}
					}
					checkLiveBodies(t, fmt.Sprintf("nIn %d nOut %d stride %d live %.1f", nIn, nOut, xStride, share),
						bias, x, wt, live, nIn, nOut, xStride)
				}
			}
		}
	}
}

// TestAffineRowTLiveRejectsStrayBit: a set bit at or past nIn, or too few
// words, panics before any body reads through it.
func TestAffineRowTLiveRejectsStrayBit(t *testing.T) {
	for _, tc := range []struct {
		live []uint64
		nIn  int
	}{{[]uint64{1 << 5}, 5}, {[]uint64{1 << 63}, 63}, {[]uint64{1}, 65}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("live %x for %d inputs: no panic", tc.live, tc.nIn)
				}
			}()
			dst := make([]float64, 1)
			affineRowTLive(dst, []float64{0}, make([]float64, 128), make([]float64, 128), tc.live, tc.nIn, 1, 1)
		}()
	}
}

// FuzzAffineRowTLive decodes a live-input affine row from the fuzz bytes —
// nIn 1-130, nOut 1-80 and xStride 1-3 from the first three, then the live
// mask (bits at or past nIn dropped), then the values, eight bytes each,
// reused in turn for bias, x and wt — and holds every body this machine
// has to affineRowTGo over the listed inputs, bit for bit (NaN matching
// NaN, as sameFloats does), none writing past dst[nOut-1].
func FuzzAffineRowTLive(f *testing.F) {
	f.Add([]byte{21, 20, 0, 0xff, 0x0f, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{63, 63, 2, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55,
		0, 0, 0, 0, 0, 0, 0xf0, 0x7f, // +Inf
		0, 0, 0, 0, 0, 0, 0xf8, 0x7f, // NaN
		0, 0, 0, 0, 0, 0, 0, 0x80, // -0
		1, 0, 0, 0, 0, 0, 0, 0, // the least subnormal
		0, 0, 0, 0, 0, 0, 0xf0, 0x3f}) // 1
	f.Add(append([]byte{129, 79, 1}, slices.Repeat([]byte{0xff}, 40)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		nIn, nOut, xStride := 1+int(data[0])%130, 1+int(data[1])%80, 1+int(data[2])%3
		data = data[3:]
		words := (nIn + 63) / 64
		live := make([]uint64, words)
		for i := 0; i < nIn && i/8 < len(data); i++ {
			if data[i/8]>>(i%8)&1 != 0 {
				live[i/64] |= 1 << (i % 64)
			}
		}
		data = data[min(len(data), words*8):]
		vals := []float64{1.5}
		if len(data) >= 8 {
			vals = vals[:0]
			for ; len(data) >= 8; data = data[8:] {
				vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			}
		}
		next := 0
		fill := func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = vals[next%len(vals)]
				next++
			}
			return v
		}
		bias, x, wt := fill(nOut), fill((nIn-1)*xStride+1), fill(nIn*nOut)
		checkLiveBodies(t, fmt.Sprintf("nIn %d nOut %d stride %d live %x", nIn, nOut, xStride, live),
			bias, x, wt, live, nIn, nOut, xStride)
	})
}
