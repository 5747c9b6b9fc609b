package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// batchShapes exercises the kernel's blocking remainders: odd/even batch
// sizes against output widths around the 4-output block and non-square
// hidden layers, plus the no-hidden-layer affine ablation.
var batchShapes = []struct {
	name  string
	sizes []int
}{
	{"ttp-22-64-64-21", []int{22, 64, 64, 21}},
	{"affine-5-21", []int{5, 21}},
	{"narrow-7-3-2", []int{7, 3, 2}},
	{"tall-4-130-1", []int{4, 130, 1}},
	{"wide-in-97-8-5", []int{97, 8, 5}},
}

// forwardOne runs one sample through the portable kernel at batch size 1 and
// returns a copy of its logits: the "scalar" side of every comparison below
// (a single row takes the kernel's one-row tail, never the two-row blocks).
func forwardOne(m *MLP, x []float64) []float64 {
	return append([]float64(nil), m.ForwardBatchInto(m.NewBatchWorkspace(1), x, 1)...)
}

func randomBatch(rng *rand.Rand, rows, nIn int) []float64 {
	xs := make([]float64, rows*nIn)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	return xs
}

func TestForwardBatchMatchesScalar(t *testing.T) {
	for _, tc := range batchShapes {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(101))
			m := NewMLP(rng, tc.sizes...)
			bws := m.NewBatchWorkspace(1)
			for _, rows := range []int{1, 2, 3, 7, 10, 17} {
				xs := randomBatch(rng, rows, m.InputSize())
				out := m.ForwardBatchInto(bws, xs, rows)
				for r := 0; r < rows; r++ {
					want := forwardOne(m, xs[r*m.InputSize():(r+1)*m.InputSize()])
					got := out[r*m.OutputSize() : (r+1)*m.OutputSize()]
					for o := range want {
						if math.Abs(got[o]-want[o]) > 1e-12 {
							t.Fatalf("rows=%d sample %d output %d: batch %v vs scalar %v",
								rows, r, o, got[o], want[o])
						}
					}
				}
			}
		})
	}
}

func TestForwardBatchBitwiseIdentical(t *testing.T) {
	// The kernel keeps the scalar path's per-element summation order, so
	// batched and scalar logits must agree exactly, not just to tolerance.
	rng := rand.New(rand.NewSource(7))
	m := NewMLP(rng, 22, 64, 64, 21)
	bws := m.NewBatchWorkspace(10)
	xs := randomBatch(rng, 10, 22)
	out := m.ForwardBatchInto(bws, xs, 10)
	for r := 0; r < 10; r++ {
		want := forwardOne(m, xs[r*22:(r+1)*22])
		for o := range want {
			if got := out[r*21+o]; got != want[o] {
				t.Fatalf("sample %d output %d: batch %v != scalar %v", r, o, got, want[o])
			}
		}
	}
}

func TestPredictDistBatchMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP(rng, 22, 64, 64, 21)
	bws := m.NewBatchWorkspace(8)
	xs := randomBatch(rng, 8, 22)
	dists := m.PredictDistBatch(bws, xs, 8, nil)
	scalar := make([]float64, 21)
	for r := 0; r < 8; r++ {
		Softmax(scalar, forwardOne(m, xs[r*22:(r+1)*22]))
		sum := 0.0
		for o := range scalar {
			got := dists[r*21+o]
			sum += got
			if got != scalar[o] {
				t.Fatalf("sample %d bin %d: batch %v != scalar %v", r, o, got, scalar[o])
			}
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("sample %d distribution sums to %v", r, sum)
		}
	}
}

func TestBatchWorkspaceGrowsAndIsReusable(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP(rng, 6, 10, 4)
	bws := m.NewBatchWorkspace(2)
	small := randomBatch(rng, 2, 6)
	first := append([]float64(nil), m.ForwardBatchInto(bws, small, 2)...)
	// A larger batch grows the workspace in place...
	big := randomBatch(rng, 9, 6)
	m.ForwardBatchInto(bws, big, 9)
	// ...and the original batch still evaluates identically afterwards.
	again := m.ForwardBatchInto(bws, small, 2)
	for i := range first {
		if first[i] != again[i] {
			t.Fatalf("output %d changed after workspace growth: %v vs %v", i, first[i], again[i])
		}
	}
}

func TestBatchWorkspaceSharedAcrossEqualShapeNets(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := NewMLP(rng, 8, 16, 5)
	b := NewMLP(rng, 8, 16, 5)
	bws := a.NewBatchWorkspace(4)
	xs := randomBatch(rng, 4, 8)
	outA := append([]float64(nil), a.ForwardBatchInto(bws, xs, 4)...)
	outB := append([]float64(nil), b.ForwardBatchInto(bws, xs, 4)...)
	for r := 0; r < 4; r++ {
		wantA := forwardOne(a, xs[r*8:(r+1)*8])
		wantB := forwardOne(b, xs[r*8:(r+1)*8])
		for o := 0; o < 5; o++ {
			if outA[r*5+o] != wantA[o] || outB[r*5+o] != wantB[o] {
				t.Fatalf("shared workspace corrupted outputs at sample %d", r)
			}
		}
	}
}

func TestBatchWorkspaceRejectsWrongShape(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := NewMLP(rng, 4, 8, 3)
	b := NewMLP(rng, 4, 9, 3)
	bws := a.NewBatchWorkspace(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched workspace shape")
		}
	}()
	b.ForwardBatchInto(bws, make([]float64, 8), 2)
}

func TestForwardBatchNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP(rng, 22, 64, 64, 21)
	bws := m.NewBatchWorkspace(10)
	xs := randomBatch(rng, 10, 22)
	dst := make([]float64, 10*21)
	allocs := testing.AllocsPerRun(100, func() {
		m.PredictDistBatch(bws, xs, 10, dst)
	})
	if allocs != 0 {
		t.Fatalf("PredictDistBatch allocates %v times per run, want 0", allocs)
	}
}

func TestLoadedModelKeepsBatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	m := NewMLP(rng, 22, 64, 64, 21)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	bws := loaded.NewBatchWorkspace(6)
	xs := randomBatch(rng, 6, 22)
	out := loaded.ForwardBatchInto(bws, xs, 6)
	for r := 0; r < 6; r++ {
		want := forwardOne(m, xs[r*22:(r+1)*22])
		for o := range want {
			if out[r*21+o] != want[o] {
				t.Fatalf("loaded model batch output differs at sample %d bin %d", r, o)
			}
		}
	}
}

func BenchmarkForwardBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := NewMLP(rng, 22, 64, 64, 21)
	bws := m.NewBatchWorkspace(10)
	xs := randomBatch(rng, 10, 22)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ForwardBatchInto(bws, xs, 10)
	}
}
