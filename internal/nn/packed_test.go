package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestPackedForwardBitwiseIdentical: the packed forward, on every row body,
// must reproduce the dot-product oracle (forwardOne over the source net's W
// and B) bit for bit, across blocking remainders (output widths below, at
// and past the full vector blocks), batch sizes, and sign patterns that
// exercise the ReLU edge.
func TestPackedForwardBitwiseIdentical(t *testing.T) {
	shapes := [][]int{
		{22, 64, 64, 21}, // the TTP
		{5, 21},          // affine ablation: remainder only
		{7, 3, 2},        // narrow remainders only
		{4, 130, 1},      // many full blocks plus a remainder, single output
		{97, 8, 5},       // wide input, one vector's remainder
		{1, 16},          // single input, exact AVX2 block
		{3, 4, 4, 4, 2},  // deep and narrow
		{10, 33},         // full blocks plus one output
	}
	rng := rand.New(rand.NewSource(42))
	for _, sizes := range shapes {
		m := NewMLP(rng, sizes...)
		// Mix in negative biases so hidden pre-activations cross zero.
		for l := range m.B {
			for i := range m.B[l] {
				m.B[l][i] = rng.NormFloat64() * 0.3
			}
		}
		p := m.NewPacked()
		for _, rows := range []int{1, 2, 3, 7, 16, 41} {
			xs := make([]float64, rows*m.InputSize())
			for i := range xs {
				xs[i] = rng.NormFloat64() * 2
			}
			nIn, nOut := m.InputSize(), m.OutputSize()
			want := make([]float64, 0, rows*nOut)
			wantD := make([]float64, rows*nOut)
			for r := 0; r < rows; r++ {
				want = append(want, forwardOne(m, xs[r*nIn:(r+1)*nIn])...)
				Softmax(wantD[r*nOut:(r+1)*nOut], want[r*nOut:])
			}
			ws := p.NewBatchWorkspace(rows)
			for _, body := range rowBodies {
				got := p.forward(ws, xs, rows, body.run)
				for i := range want {
					if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
						t.Fatalf("%s shape %v rows %d: logit %d differs: %v vs %v",
							body.name, sizes, rows, i, want[i], got[i])
					}
				}
				gotD := p.predictDist(ws, xs, rows, nil, body.run)
				for i := range wantD {
					if math.Float64bits(wantD[i]) != math.Float64bits(gotD[i]) {
						t.Fatalf("%s shape %v rows %d: dist %d differs", body.name, sizes, rows, i)
					}
				}
			}
		}
	}
}

// TestReluVecMatchesScalar: the branchless SIMD ReLU must reproduce
// reluInPlace element for element, including the edge cases the scalar rule
// pins down: NaN -> +0, -0 -> +0, +0 stays +0, negatives -> +0, positives
// pass through — at every vector-width remainder.
func TestReluVecMatchesScalar(t *testing.T) {
	if !useAVX2 {
		t.Skip("no SIMD on this machine")
	}
	base := []float64{
		math.NaN(), math.Copysign(0, -1), 0, -1e-300, 1e-300, -3.5, 2.25,
		math.Inf(1), math.Inf(-1), 7, -7, 0.5, -0.5, 42, -42, 1, -1,
	}
	for n := 0; n <= len(base); n++ {
		a := append([]float64(nil), base[:n]...)
		b := append([]float64(nil), base[:n]...)
		reluInPlace(a)
		reluVec(b)
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("n=%d: element %d: scalar %x vs simd %x",
					n, i, math.Float64bits(a[i]), math.Float64bits(b[i]))
			}
		}
	}
}

// TestPackedIsASnapshot: mutating the source network after NewPacked must
// not change packed results (the inference service depends on this to serve
// a consistent model while training mutates a clone elsewhere).
func TestPackedIsASnapshot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := NewMLP(rng, 6, 9, 4)
	p := m.NewPacked()
	xs := []float64{0.3, -1, 2, 0.5, -0.2, 1.1}
	ws := p.NewBatchWorkspace(1)
	before := append([]float64(nil), p.ForwardBatchInto(ws, xs, 1)...)
	for l := range m.W {
		for i := range m.W[l] {
			m.W[l][i] += 1
		}
	}
	after := p.ForwardBatchInto(ws, xs, 1)
	for i := range before {
		if math.Float64bits(before[i]) != math.Float64bits(after[i]) {
			t.Fatalf("packed output changed after source mutation at %d", i)
		}
	}
}

// TestPackedHoldsOneCopy: a snapshot holds the network's parameters once,
// as transposed weights and biases, and keeps no second copy of them
// (every deployed model is held as its snapshot for as long as it serves).
func TestPackedHoldsOneCopy(t *testing.T) {
	m := NewMLP(rand.New(rand.NewSource(5)), 22, 64, 64, 21)
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			m.NewPacked()
		}
	})
	limit := 1.25 * 8 * float64(m.NumParams())
	if got := res.AllocedBytesPerOp(); float64(got) >= limit {
		t.Fatalf("NewPacked allocates %d bytes for %d parameters, want < %.0f (one copy and slack)", got, m.NumParams(), limit)
	}
}

// BenchmarkForwardPacked measures the packed forward on its portable row
// body and on the dispatched one, on the TTP shape at a session's batch and
// a serving-scale batch — the per-row cost the fleet engine's cross-session
// batches pay.
func BenchmarkForwardPacked(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP(rng, 22, 64, 64, 21)
	p := m.NewPacked()
	for _, rows := range []int{10, 200} {
		xs := make([]float64, rows*22)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		ws := p.NewBatchWorkspace(rows)
		b.Run(benchName("portable", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.forward(ws, xs, rows, affineRowTGo)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
		b.Run(benchName("packed", rows), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.ForwardBatchInto(ws, xs, rows)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}

func benchName(kind string, rows int) string {
	if rows == 10 {
		return kind + "/rows-10"
	}
	return kind + "/rows-200"
}
