package obs_test

import (
	"math/rand"
	"sync"
	"testing"

	"puffer/internal/abr"
	"puffer/internal/core"
	"puffer/internal/fleet"
	"puffer/internal/obs"
)

// TestFlushTraceContext: one inference flush serves many decisions, so its
// infer_flush span and its per-net kernel spans go to the first traced
// decision enqueued since the previous flush. Two services flushing at
// once (as puffer-sweep's side-by-side fleet cells do) must each attribute
// exactly their own spans: every flush's spans sit under its own decision,
// none is lost and none lands under the other service's decision.
func TestFlushTraceContext(t *testing.T) {
	const services, flushes = 2, 300
	obsOn(t, true)
	tr := obs.NewTracer(1, 2*services*flushes*(core.DefaultHorizon+1))
	obs.SetTracer(tr)
	t.Cleanup(func() { obs.SetTracer(nil) })

	ttp := core.NewTTP(rand.New(rand.NewSource(3)), core.DefaultHorizon, []int{8}, core.DefaultFeatures(), core.KindTransTime)
	type decision struct{ trace, span uint64 }
	decisions := make([][]decision, services)
	var wg sync.WaitGroup
	for g := 0; g < services; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			dp := core.NewDeferredPredictor(core.NewPredictor(ttp, core.ModeProbabilistic))
			sizes := []float64{1e5, 4e5}
			dists := make([]float64, len(sizes)*abr.NumBins)
			var o abr.Observation
			svc := fleet.NewInferenceService()
			for i := 0; i < flushes; i++ {
				dp.Clear()
				for step := 0; step < core.DefaultHorizon; step++ {
					dp.PredictDistBatch(&o, step, sizes, dists)
				}
				d := decision{obs.DecisionTraceID(int64(g), uint64(i)), tr.NewSpanID()}
				decisions[g] = append(decisions[g], d)
				svc.EnqueueTraced(dp.Pending(), d.trace, d.span)
				svc.Flush()
			}
		}(g)
	}
	wg.Wait()

	owner := map[uint64]decision{}
	for _, ds := range decisions {
		for _, d := range ds {
			owner[d.trace] = d
		}
	}
	spans := map[uint64]map[string]int{} // decision trace -> span name -> count
	for _, s := range tr.Snapshot() {
		if s.Name != "infer_flush" && s.Name != "kernel" {
			continue
		}
		if d, ok := owner[s.Trace]; !ok || s.Parent != d.span {
			t.Fatalf("%s span (trace %016x, parent %d) sits under no decision of its flush", s.Name, s.Trace, s.Parent)
		}
		if spans[s.Trace] == nil {
			spans[s.Trace] = map[string]int{}
		}
		spans[s.Trace][s.Name]++
	}
	for g, ds := range decisions {
		flushSpans, kernelSpans := 0, 0
		for _, d := range ds {
			flushSpans += spans[d.trace]["infer_flush"]
			kernelSpans += spans[d.trace]["kernel"]
		}
		if flushSpans != flushes || kernelSpans != flushes*core.DefaultHorizon {
			t.Errorf("service %d: %d infer_flush and %d kernel spans, want %d and %d",
				g, flushSpans, kernelSpans, flushes, flushes*core.DefaultHorizon)
		}
	}
}
