package nn

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// cacheFixture is a small net, a minibatch to train it on, and probe rows.
func cacheFixture(seed int64) (net *MLP, xs [][]float64, labels []int, probe []float64) {
	rng := rand.New(rand.NewSource(seed))
	net = NewMLP(rng, 6, 9, 4)
	for i := 0; i < 8; i++ {
		x := make([]float64, net.InputSize())
		for j := range x {
			x[j] = rng.NormFloat64()
		}
		xs = append(xs, x)
		labels = append(labels, rng.Intn(net.OutputSize()))
		probe = append(probe, x...)
	}
	return net, xs, labels, probe
}

// servesCurrentWeights fails unless net.Packed() answers probe exactly as
// the portable kernel does on net's weights as they are now.
func servesCurrentWeights(t *testing.T, what string, net *MLP, probe []float64) {
	t.Helper()
	rows := len(probe) / net.InputSize()
	want := net.ForwardBatchInto(net.NewBatchWorkspace(rows), probe, rows)
	p := net.Packed()
	got := p.ForwardBatchInto(p.NewBatchWorkspace(rows), probe, rows)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: Packed() logit %d = %v, the net's weights give %v (stale snapshot)", what, i, got[i], want[i])
		}
	}
}

// TestPackedSnapshotIsMemoisedAndDropped: Packed hands every caller the same
// snapshot until a writer changes the parameters, and every in-package
// writer — both optimizers, through every Trainer entry point, and Pack —
// drops it, so the next Packed reflects the new weights. Each writer is
// checked on its own net so that one missing invalidation fails the test.
func TestPackedSnapshotIsMemoisedAndDropped(t *testing.T) {
	writers := map[string]func(net *MLP, xs [][]float64, labels []int){
		"Adam via TrainClassBatch": func(net *MLP, xs [][]float64, labels []int) {
			NewTrainer(net, &Adam{LR: 0.05}).TrainClassBatch(xs, labels, nil)
		},
		"SGD via TrainClassBatch": func(net *MLP, xs [][]float64, labels []int) {
			NewTrainer(net, &SGD{LR: 0.05, Momentum: 0.9}).TrainClassBatch(xs, labels, nil)
		},
		"SGD via TrainRegBatch": func(net *MLP, xs [][]float64, labels []int) {
			targets := make([][]float64, len(xs))
			for i := range targets {
				targets[i] = make([]float64, net.OutputSize())
				targets[i][labels[i]] = 1
			}
			NewTrainer(net, &SGD{LR: 0.05}).trainRegBatch(xs, targets)
		},
		"Adam via PolicyGradStep": func(net *MLP, xs [][]float64, labels []int) {
			adv := make([]float64, len(xs))
			for i := range adv {
				adv[i] = float64(i%3) - 0.7
			}
			NewTrainer(net, &Adam{LR: 0.05}).PolicyGradStep(xs, labels, adv, 0.01)
		},
	}
	for name, write := range writers {
		t.Run(name, func(t *testing.T) {
			net, xs, labels, probe := cacheFixture(91)
			before := net.Packed()
			if again := net.Packed(); again != before {
				t.Fatal("Packed() built a second snapshot of an unchanged net")
			}
			servesCurrentWeights(t, "fresh net", net, probe)

			w00 := net.W[0][0]
			write(net, xs, labels)
			if net.W[0][0] == w00 {
				t.Fatal("the step did not move the weights; the test cannot see a stale snapshot")
			}
			if net.Packed() == before {
				t.Fatal("Packed() returned the pre-step snapshot after an optimizer step")
			}
			servesCurrentWeights(t, "after one step", net, probe)
		})
	}

	t.Run("Pack", func(t *testing.T) {
		net, _, _, probe := cacheFixture(92)
		before := net.Packed()
		if err := net.Pack(); err != nil {
			t.Fatal(err)
		}
		if net.Packed() == before {
			t.Fatal("Packed() returned the pre-Pack snapshot")
		}
		servesCurrentWeights(t, "after Pack", net, probe)
	})
}

// TestPackedSnapshotNotSharedByCopies: Clone and a gob round trip start
// with no snapshot, and training the copy neither sees nor disturbs the
// original's.
func TestPackedSnapshotNotSharedByCopies(t *testing.T) {
	net, xs, labels, probe := cacheFixture(93)
	orig := net.Packed()

	var buf bytes.Buffer
	if err := net.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]*MLP{"Clone": net.Clone(), "Load": loaded} {
		if c.packed.Load() != nil {
			t.Fatalf("%s: copy starts with a cached snapshot", name)
		}
		if c.Packed() == orig {
			t.Fatalf("%s: copy shares the original's snapshot", name)
		}
		NewTrainer(c, &Adam{LR: 0.05}).TrainClassBatch(xs, labels, nil)
		servesCurrentWeights(t, name+" after training the copy", c, probe)
		if net.Packed() != orig {
			t.Fatalf("%s: training the copy dropped the original's snapshot", name)
		}
		servesCurrentWeights(t, name+": original", net, probe)
	}
}

// TestPackedConcurrentFirstUse: goroutines racing on a net's first Packed
// call all come away with the one snapshot that won (run with -race).
func TestPackedConcurrentFirstUse(t *testing.T) {
	net, _, _, probe := cacheFixture(94)
	const goroutines = 16
	got := make([]*PackedMLP, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			got[g] = net.Packed()
		}(g)
	}
	close(start)
	wg.Wait()
	for g, p := range got {
		if p != got[0] {
			t.Fatalf("goroutine %d holds a different snapshot from goroutine 0", g)
		}
	}
	servesCurrentWeights(t, "after the race", net, probe)
}
