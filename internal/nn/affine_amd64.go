//go:build amd64

package nn

// useAVX2 gates the packed SIMD kernel: the CPU must support AVX2 and the
// OS must have enabled YMM state saving.
var useAVX2 = detectAVX2()

// useAVX512 upgrades the packed kernel to 512-bit vectors when the CPU and
// OS support AVX-512F (ZMM state enabled).
var useAVX512 = useAVX2 && detectAVX512()

// affineRowTAVX2 is affineRowTGo's contract on 256-bit vectors: it
// vectorizes across outputs, each output still accumulating in ascending
// input order from its bias with a separate multiply and add rounding per
// term (VMULPD+VADDPD, never FMA), so every element is bitwise identical to
// the portable body.
//
//go:noescape
func affineRowTAVX2(dst, bias, x, wt *float64, nIn, nOut, xStride int)

// affineRowTAVX512 is the same contract on 512-bit vectors.
//
//go:noescape
func affineRowTAVX512(dst, bias, x, wt *float64, nIn, nOut, xStride int)

// affineRowT runs one affine row (see affineRowTGo) on the widest supported
// body. Like the other primitives below it dispatches here, once, so callers
// hold one code path for every platform.
func affineRowT(dst, bias, x, wt []float64, nIn, nOut, xStride int) {
	if !useAVX2 || nIn == 0 || nOut == 0 {
		affineRowTGo(dst, bias, x, wt, nIn, nOut, xStride)
		return
	}
	// The assembly goes through bare pointers: check the extents here.
	_, _, _, _ = dst[nOut-1], bias[nOut-1], x[(nIn-1)*xStride], wt[nIn*nOut-1]
	if useAVX512 {
		affineRowTAVX512(&dst[0], &bias[0], &x[0], &wt[0], nIn, nOut, xStride)
		return
	}
	affineRowTAVX2(&dst[0], &bias[0], &x[0], &wt[0], nIn, nOut, xStride)
}

// reluVecAVX2 and reluVecAVX512 clamp non-positive entries (and NaN) to +0
// in place, branchlessly — element-for-element identical to reluInPlace.
//
//go:noescape
func reluVecAVX2(v *float64, n int)

//go:noescape
func reluVecAVX512(v *float64, n int)

// reluVec is the in-place ReLU (reluInPlace is its portable body).
func reluVec(v []float64) {
	switch {
	case !useAVX2 || len(v) == 0:
		reluInPlace(v)
	case useAVX512:
		reluVecAVX512(&v[0], len(v))
	default:
		reluVecAVX2(&v[0], len(v))
	}
}

// The training step's elementwise passes. They move a few thousand elements
// per minibatch against the affine kernel's few hundred thousand
// multiply-adds, so 256-bit bodies are all they get.
//
//go:noescape
func reluCopyAVX2(dst, src *float64, n int)

//go:noescape
func maskNonPosAVX2(d, z *float64, n int)

//go:noescape
func adamStepAVX2(par, grad, mom, vel *float64, n int, k *adamConsts)

// reluCopy writes relu(src) into dst (see reluCopyGo); len(dst) >= len(src).
func reluCopy(dst, src []float64) {
	if !useAVX2 || len(src) == 0 {
		reluCopyGo(dst, src)
		return
	}
	_ = dst[len(src)-1]
	reluCopyAVX2(&dst[0], &src[0], len(src))
}

// maskNonPos zeroes d where z <= 0 (see maskNonPosGo); len(d) >= len(z).
func maskNonPos(d, z []float64) {
	if !useAVX2 || len(z) == 0 {
		maskNonPosGo(d, z)
		return
	}
	_ = d[len(z)-1]
	maskNonPosAVX2(&d[0], &z[0], len(z))
}

// adamStep is one fused Adam pass (see adamStepGo); g, m and v are at least
// as long as p.
func adamStep(p, g, m, v []float64, k *adamConsts) {
	n := len(p)
	if !useAVX2 || n == 0 {
		adamStepGo(p, g, m, v, k)
		return
	}
	_, _, _ = g[n-1], m[n-1], v[n-1]
	adamStepAVX2(&p[0], &g[0], &m[0], &v[0], n, k)
}

// The model-predictive planner's two passes (internal/abr). A decision runs
// each a few dozen times over rows of ~60 elements, so like the training
// passes above they get 256-bit bodies only.
//
//go:noescape
func shiftedAccumAVX2(dst, src, p *float64, lo, off *int32, n, nK int)

//go:noescape
func maxPlaneAVX2(dst, base, c *float64, n, nQ, stride int)

// ShiftedAccum adds p[k]·src[i+off[k]] onto dst[i] for lo[k] <= i < len(dst),
// over the non-zero p[k] in ascending k (see shiftedAccumGo).
func ShiftedAccum(dst, src, p []float64, lo, off []int32) {
	n := len(dst)
	if !useAVX2 || n == 0 || len(p) == 0 || len(src) == 0 {
		shiftedAccumGo(dst, src, p, lo, off)
		return
	}
	// The assembly goes through bare pointers: check every window it can
	// read, as the portable body's slicing would.
	lo, off = lo[:len(p)], off[:len(p)]
	for k, l := range lo {
		if int(l) < n {
			_ = src[int(l)+int(off[k]):][:n-int(l)]
		}
	}
	shiftedAccumAVX2(&dst[0], &src[0], &p[0], &lo[0], &off[0], n, len(p))
}

// MaxPlane sets dst[i] to the greatest c[q]+base[q*stride+i] over q <
// len(c), first of equals (see maxPlaneGo).
func MaxPlane(dst, base, c []float64, stride int) {
	n := len(dst)
	if !useAVX2 || n == 0 {
		maxPlaneGo(dst, base, c, stride)
		return
	}
	if stride < 0 {
		panic("nn: MaxPlane: negative stride")
	}
	_, _ = c[0], base[(len(c)-1)*stride+n-1]
	maxPlaneAVX2(&dst[0], &base[0], &c[0], n, len(c), stride)
}

// cpuid executes the CPUID instruction for (leaf, subleaf).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads extended control register 0 (requires OSXSAVE).
func xgetbv0() (eax, edx uint32)

// detectAVX2 checks CPU support for AVX2 and OS support for YMM state.
func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	_, _, c1, _ := cpuid(1, 0)
	if c1&osxsave == 0 || c1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv0(); xcr0&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(1<<5) != 0
}

// detectAVX512 checks CPU support for AVX-512F and OS support for the
// opmask/ZMM state (XCR0 bits 5-7 alongside SSE/YMM).
func detectAVX512() bool {
	if xcr0, _ := xgetbv0(); xcr0&0xE6 != 0xE6 {
		return false
	}
	_, b7, _, _ := cpuid(7, 0)
	return b7&(1<<16) != 0
}
