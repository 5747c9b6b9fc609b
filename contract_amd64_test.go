package puffer

import (
	"testing"
	_ "unsafe" // go:linkname

	"puffer/internal/nn"
)

// The SIMD gates of the nn kernel primitives, Softmax's vector body
// included. nn keeps them unexported, and reaching them costs no exported
// name (internal/abr's planner test flips them the same way). Every
// primitive reads its gate at each call, so flipping the variable reaches
// them all; a gate derived from it once at init would not be flipped.
//
//go:linkname nnUseAVX2 puffer/internal/nn.useAVX2
var nnUseAVX2 bool

//go:linkname nnUseAVX512 puffer/internal/nn.useAVX512
var nnUseAVX512 bool

func init() {
	// With both gates off every affine row, ReLU, Adam step, planner pass
	// and softmax runs its portable body (softmaxGo: scalar math.Exp).
	forcePortable = func(t *testing.T) {
		if !nnUseAVX2 {
			t.Skip("no AVX2 on this host: every cell already runs the portable bodies")
		}
		avx2, avx512 := nnUseAVX2, nnUseAVX512
		nnUseAVX2, nnUseAVX512 = false, false
		t.Cleanup(func() { nnUseAVX2, nnUseAVX512 = avx2, avx512 })
		if nn.Accelerated() {
			t.Fatal("nn.Accelerated() with the SIMD gates off: the cell would not run the portable bodies")
		}
	}
}
