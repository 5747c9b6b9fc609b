package nn

import (
	"math/rand"
	"slices"
	"testing"
)

// TestAffineRowTAssemblyBodies: each affineRowT assembly body this machine
// can run, called by name (dispatch alone would only ever reach the widest),
// over the same table as TestAffineRowTStride.
func TestAffineRowTAssemblyBodies(t *testing.T) {
	bodies := map[string]func(dst, bias, x, wt *float64, nIn, nOut, xStride int){}
	if useAVX2 {
		bodies["avx2"] = affineRowTAVX2
	}
	if useAVX512 {
		bodies["avx512"] = affineRowTAVX512
	}
	if len(bodies) == 0 {
		t.Skip("no SIMD on this machine")
	}
	forEachAffineCase(func(what string, bias, x, wt, want []float64, nIn, nOut, xStride int) {
		for name, body := range bodies {
			got := make([]float64, nOut)
			body(&got[0], &bias[0], &x[0], &wt[0], nIn, nOut, xStride)
			sameFloats(t, name+" "+what, got, want)
		}
	})
}

// TestPlannerKernelAssemblyBodies: the two planner assembly bodies, called by
// name, against their portable bodies over forEachPlannerCase's table.
func TestPlannerKernelAssemblyBodies(t *testing.T) {
	if !useAVX2 {
		t.Skip("no SIMD on this machine")
	}
	// One element of slack so that &x[0] exists at n == 0; the bodies are
	// still told the true lengths.
	ptr := func(x []float64) *float64 { return &append(x, 0)[0] }
	forEachPlannerCase(func(what string, n int, dst0, src, p []float64, lo, off []int32, base, c []float64, stride int) {
		want := slices.Clone(dst0)
		shiftedAccumGo(want, src, p, lo, off)
		got := append(slices.Clone(dst0), 7)
		shiftedAccumAVX2(&got[0], ptr(src), &p[0], &lo[0], &off[0], n, len(p))
		sameFloats(t, "shiftedAccumAVX2 "+what, got[:n], want)

		maxPlaneGo(want, base, c, stride)
		maxPlaneAVX2(&got[0], ptr(base), &c[0], n, len(c), stride)
		sameFloats(t, "maxPlaneAVX2 "+what, got[:n], want)
		if got[n] != 7 {
			t.Fatalf("%s: wrote past dst[%d]", what, n)
		}
	})
}

// TestTrainClassBatchPortableBodies: the training step other platforms run.
// With the SIMD gates forced off every primitive takes its portable body;
// the trained weights and losses must equal the SIMD run's bit for bit.
func TestTrainClassBatchPortableBodies(t *testing.T) {
	if !useAVX2 {
		t.Skip("no SIMD on this machine: the portable bodies are already what every other test runs")
	}
	rng := rand.New(rand.NewSource(12))
	a, b, xs, labels, weights := trainFixture(rng, []int{22, 64, 64, 21}, 70)
	ta := NewTrainer(a, &Adam{LR: 1e-3})
	tb := NewTrainer(b, &Adam{LR: 1e-3})
	var simd, portable []float64
	for step := 0; step < 6; step++ {
		simd = append(simd, ta.TrainClassBatch(xs, labels, weights))
	}
	avx2, avx512 := useAVX2, useAVX512
	useAVX2, useAVX512 = false, false
	defer func() { useAVX2, useAVX512 = avx2, avx512 }()
	for step := 0; step < 6; step++ {
		portable = append(portable, tb.TrainClassBatch(xs, labels, weights))
	}
	sameFloats(t, "losses", portable, simd)
	sameFloats(t, "parameters", b.flat, a.flat)
}

// TestTrainStepsMatchPerSamplePortableBodies reruns both training
// differentials with the SIMD gates forced off, so the portable bodies are
// held to the per-sample reference directly and not only through the SIMD
// run.
func TestTrainStepsMatchPerSamplePortableBodies(t *testing.T) {
	if !useAVX2 {
		t.Skip("no SIMD on this machine: the portable bodies are already what every other test runs")
	}
	avx2, avx512 := useAVX2, useAVX512
	useAVX2, useAVX512 = false, false
	defer func() { useAVX2, useAVX512 = avx2, avx512 }()
	checkTrainClassMatchesPerSample(t)
	checkPolicyGradMatchesPerSample(t)
}
