package nn

import (
	"math/rand"
	"slices"
	"testing"
)

// affineBody is one affineRowT assembly body, by name.
type affineBody struct {
	name string
	run  func(dst, bias, x, wt *float64, nIn, nOut, xStride int)
}

// asmAffineBodies lists the affineRowT assembly bodies this machine can run
// (dispatch alone would only ever reach the widest).
func asmAffineBodies() []affineBody {
	var bodies []affineBody
	if useAVX2 {
		bodies = append(bodies, affineBody{"avx2", affineRowTAVX2})
	}
	if useAVX512 {
		bodies = append(bodies, affineBody{"avx512", affineRowTAVX512})
	}
	return bodies
}

// TestAffineRowTAssemblyBodies: each affineRowT assembly body this machine
// can run, called by name, over the same table as TestAffineRowTStride. The
// destination has a sentinel past dst[nOut-1]: a masked store with a lane
// too many would write it.
func TestAffineRowTAssemblyBodies(t *testing.T) {
	bodies := asmAffineBodies()
	if len(bodies) == 0 {
		t.Skip("no SIMD on this machine")
	}
	forEachAffineCase(func(what string, bias, x, wt, want []float64, nIn, nOut, xStride int) {
		for _, body := range bodies {
			got := withSentinel(nOut)
			body.run(&got[0], &bias[0], &x[0], &wt[0], nIn, nOut, xStride)
			checkSentinel(t, body.name+" "+what, got, nOut)
			sameFloats(t, body.name+" "+what, got[:nOut], want)
		}
	})
}

// BenchmarkAffineRowT times one affineRowT row on every body this machine
// runs, at the trainer's shapes: the first layer's forward (22→64), a hidden
// layer's (64→64), the output layer's (64→21) and the first layer's weight
// gradient row over a 64-sample minibatch (64→22, x a delta column at the
// hidden width's stride).
func BenchmarkAffineRowT(b *testing.B) {
	shapes := []struct {
		name               string
		nIn, nOut, xStride int
	}{{"22to64", 22, 64, 1}, {"64to64", 64, 64, 1}, {"64to21", 64, 21, 1}, {"64to22grad", 64, 22, 64}}
	rng := rand.New(rand.NewSource(34))
	normals := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	for _, sh := range shapes {
		bias, x, wt := normals(sh.nOut), normals((sh.nIn-1)*sh.xStride+1), normals(sh.nIn*sh.nOut)
		dst := make([]float64, sh.nOut)
		b.Run(sh.name+"/portable", func(b *testing.B) {
			for b.Loop() {
				affineRowTGo(dst, bias, x, wt, sh.nIn, sh.nOut, sh.xStride)
			}
		})
		for _, body := range asmAffineBodies() {
			b.Run(sh.name+"/"+body.name, func(b *testing.B) {
				for b.Loop() {
					body.run(&dst[0], &bias[0], &x[0], &wt[0], sh.nIn, sh.nOut, sh.xStride)
				}
			})
		}
	}
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

func init() {
	ptrBody := func(name string, run func(dst, bias, x, wt *float64, live *uint64, nIn, nOut, xStride int)) liveBody {
		return liveBody{name, func(dst, bias, x, wt []float64, live []uint64, nIn, nOut, xStride int) {
			run(&dst[0], &bias[0], &x[0], &wt[0], &live[0], nIn, nOut, xStride)
		}}
	}
	if useAVX2 {
		liveBodies = append(liveBodies, ptrBody("avx2", affineRowTLiveAVX2))
	}
	if useAVX512 {
		liveBodies = append(liveBodies, ptrBody("avx512", affineRowTLiveAVX512))
	}
}
