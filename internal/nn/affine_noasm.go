//go:build !amd64

package nn

// useAVX2 is false off amd64: there is no SIMD body, so every primitive is
// its portable body — PackedMLP's forward pass and the trainer alike run
// affineRowTGo.
const useAVX2 = false

func affineRowT(dst, bias, x, wt []float64, nIn, nOut, xStride int) {
	affineRowTGo(dst, bias, x, wt, nIn, nOut, xStride)
}

func reluVec(v []float64) { reluInPlace(v) }

func reluCopy(dst, src []float64) { reluCopyGo(dst, src) }

func maskNonPos(d, z []float64) { maskNonPosGo(d, z) }

func adamStep(p, g, m, v []float64, k *adamConsts) { adamStepGo(p, g, m, v, k) }

// ShiftedAccum adds p[k]·src[i+off[k]] onto dst[i] for lo[k] <= i < len(dst),
// over the non-zero p[k] in ascending k (see shiftedAccumGo).
func ShiftedAccum(dst, src, p []float64, lo, off []int32) { shiftedAccumGo(dst, src, p, lo, off) }

// MaxPlane sets dst[i] to the greatest c[q]+base[q*stride+i] over q <
// len(c), first of equals (see maxPlaneGo).
func MaxPlane(dst, base, c []float64, stride int) { maxPlaneGo(dst, base, c, stride) }
