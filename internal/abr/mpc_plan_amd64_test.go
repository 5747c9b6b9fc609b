package abr

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	_ "unsafe" // go:linkname
)

// The SIMD gates of the nn kernel primitives. nn keeps them unexported and
// its own tests flip them in place; the planner's scratch is unexported here,
// and a test that compares value planes bit for bit under both settings has
// to reach one of the two. Reaching the gates costs no exported name.
//
//go:linkname nnUseAVX2 puffer/internal/nn.useAVX2
var nnUseAVX2 bool

//go:linkname nnUseAVX512 puffer/internal/nn.useAVX512
var nnUseAVX512 bool

// TestPlanPortableBodies: the planner other platforms run. With the gates
// forced off ShiftedAccum and MaxPlane take their portable bodies; every
// decision's rung and the whole scratch slab — both value planes, the base
// and quality terms — must equal the SIMD run's bit for bit.
func TestPlanPortableBodies(t *testing.T) {
	if !nnUseAVX2 {
		t.Skip("no SIMD on this machine: the portable bodies are already what every other test runs")
	}
	run := func() (rungs []int, slabs [][]float64) {
		rng := rand.New(rand.NewSource(78))
		m := NewMPC("m", spreadPredictor{}, DefaultQoEWeights())
		for trial := 0; trial < 60; trial++ {
			obs := randomObs(rng)
			obs.BufferCap = plannerBufCaps[rng.Intn(len(plannerBufCaps))]
			obs.Buffer = rng.Float64() * obs.BufferCap
			rungs = append(rungs, m.Choose(obs))
			slabs = append(slabs, slices.Clone(m.f64))
		}
		return rungs, slabs
	}
	simdRungs, simdSlabs := run()
	avx2, avx512 := nnUseAVX2, nnUseAVX512
	nnUseAVX2, nnUseAVX512 = false, false
	defer func() { nnUseAVX2, nnUseAVX512 = avx2, avx512 }()
	rungs, slabs := run()
	for i := range rungs {
		if rungs[i] != simdRungs[i] {
			t.Fatalf("decision %d: portable rung %d, SIMD rung %d", i, rungs[i], simdRungs[i])
		}
		if len(slabs[i]) != len(simdSlabs[i]) {
			t.Fatalf("decision %d: slab length %d vs %d", i, len(slabs[i]), len(simdSlabs[i]))
		}
		for j, v := range slabs[i] {
			if math.Float64bits(v) != math.Float64bits(simdSlabs[i][j]) {
				t.Fatalf("decision %d: scratch[%d] = %v portable, %v SIMD", i, j, v, simdSlabs[i][j])
			}
		}
	}
}
