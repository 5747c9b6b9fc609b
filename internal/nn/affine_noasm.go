//go:build !amd64

package nn

// useAVX2 is false off amd64: there is no SIMD body, so every primitive is
// its portable body and PackedMLP serves through the portable batched
// kernel.
const useAVX2 = false

func affineRowT(dst, bias, x, wt []float64, nIn, nOut, xStride int) {
	affineRowTGo(dst, bias, x, wt, nIn, nOut, xStride)
}

func reluVec(v []float64) { reluInPlace(v) }

func reluCopy(dst, src []float64) { reluCopyGo(dst, src) }

func maskNonPos(d, z []float64) { maskNonPosGo(d, z) }

func adamStep(p, g, m, v []float64, k *adamConsts) { adamStepGo(p, g, m, v, k) }
