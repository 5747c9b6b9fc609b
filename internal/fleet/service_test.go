package fleet

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"puffer/internal/abr"
	"puffer/internal/core"
	"puffer/internal/nn"
	"puffer/internal/obs"
)

// stagedDecision is one session's staged steps and where their finished
// distributions land, with the direct path's answer for each step.
type stagedDecision struct {
	dp    *core.DeferredPredictor
	dists [][]float64
	want  [][]float64
}

// stageFlush stages a fixed mixture of decisions on fresh deferred
// predictors: seven sessions over every horizon step of one model, four
// over its first step only, and one over the first two steps of a second
// model, so groups range from eleven steps down to one. Row counts vary by
// step; the same seed stages the same rows.
func stageFlush(t *testing.T, a, b *core.TTP) []*stagedDecision {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	var out []*stagedDecision
	add := func(ttp *core.TTP, mode core.Mode, steps int) {
		d := &stagedDecision{dp: core.NewDeferredPredictor(core.NewPredictor(ttp, mode))}
		direct := core.NewPredictor(ttp, mode)
		var o abr.Observation
		for step := 0; step < steps; step++ {
			sizes := make([]float64, 1+rng.Intn(10))
			for i := range sizes {
				sizes[i] = 5e4 + 2e6*rng.Float64()
			}
			dists := make([]float64, len(sizes)*abr.NumBins)
			want := make([]float64, len(dists))
			d.dp.PredictDistBatch(&o, step, sizes, dists)
			direct.PredictDistBatch(&o, step, sizes, want)
			d.dists = append(d.dists, dists)
			d.want = append(d.want, want)
		}
		out = append(out, d)
	}
	for i := 0; i < 7; i++ {
		add(a, core.Mode(i%2), core.DefaultHorizon)
	}
	for i := 0; i < 4; i++ {
		add(a, core.ModeProbabilistic, 1)
	}
	add(b, core.ModeProbabilistic, 2)
	return out
}

// TestFlushSpansBitwise: a flush split over 1, 2, 3 or 8 workers finishes
// every staged step with the direct path's distributions bit for bit, and
// keeps the same counters, including groups with fewer steps than workers
// and empty flushes on either side. A steady-state multi-worker flush
// allocates nothing.
func TestFlushSpansBitwise(t *testing.T) {
	a, b := testTTP(3), testTTP(4)
	var ref *InferenceService
	for _, workers := range []int{1, 2, 3, 8} {
		svc := newInferenceService(workers)
		t.Cleanup(svc.stop)
		svc.Flush() // empty: counts nothing
		decisions := stageFlush(t, a, b)
		for _, d := range decisions {
			svc.Enqueue(d.dp.Pending())
		}
		svc.Flush()
		if workers > 1 && len(svc.spans) <= svc.batches {
			t.Fatalf("workers %d: %d spans over %d nets; the split is vacuous", workers, len(svc.spans), svc.batches)
		}
		svc.Flush() // empty again
		for i, d := range decisions {
			for step := range d.dists {
				for j, v := range d.dists[step] {
					if math.Float64bits(v) != math.Float64bits(d.want[step][j]) {
						t.Fatalf("workers %d, decision %d step %d: dist[%d] = %v, direct path %v",
							workers, i, step, j, v, d.want[step][j])
					}
				}
			}
		}
		if ref == nil {
			ref = svc
			if svc.flushes != 1 || svc.batches != 7 {
				t.Fatalf("one-worker flush counted %d flushes, %d batches; want 1, 7", svc.flushes, svc.batches)
			}
			continue
		}
		if svc.flushes != ref.flushes || svc.batches != ref.batches || svc.rows != ref.rows || svc.maxBatch != ref.maxBatch {
			t.Fatalf("workers %d: counters (%d, %d, %d, %d), one worker (%d, %d, %d, %d)",
				workers, svc.flushes, svc.batches, svc.rows, svc.maxBatch,
				ref.flushes, ref.batches, ref.rows, ref.maxBatch)
		}
	}

	svc := newInferenceService(3)
	defer svc.stop()
	decisions := stageFlush(t, a, b)
	flush := func() {
		for _, d := range decisions {
			svc.Enqueue(d.dp.Pending())
		}
		svc.Flush()
	}
	flush() // first use builds the groups and each span's workspace
	if allocs := testing.AllocsPerRun(20, flush); allocs != 0 {
		t.Errorf("steady-state three-worker flush allocates %.1f times", allocs)
	}
}

// TestFlushReleasesRetiredNets: once model A's steps are flushed and then
// only model B's, no group references A's nets, neither as its net nor
// through a step its slot still holds, so a model rotation pins nothing of
// the retired model; B's steps, run on the slots and workspaces A's used,
// still finish bit for bit.
func TestFlushReleasesRetiredNets(t *testing.T) {
	a, b := testTTP(3), testTTP(4)
	svc := NewInferenceService()
	var last []*stagedDecision
	for _, m := range []*core.TTP{a, b} {
		last = stageFlush(t, m, m)
		for _, d := range last {
			svc.Enqueue(d.dp.Pending())
		}
		svc.Flush()
	}
	for _, g := range svc.groups {
		held := []*nn.MLP{g.net}
		for _, ps := range g.pend[:cap(g.pend)] {
			if ps != nil {
				held = append(held, ps.Net)
			}
		}
		for _, net := range held {
			if slices.Contains(a.Nets, net) {
				t.Fatalf("a group still references a net of the retired model")
			}
		}
	}
	for i, d := range last {
		for step := range d.dists {
			if !slices.Equal(d.dists[step], d.want[step]) {
				t.Fatalf("model B decision %d step %d: flushed dists differ from the direct path", i, step)
			}
		}
	}
}

// TestFlushTraceSpansPerWorkerSpan: a traced flush records one infer_flush
// span and one kernel span per span of a net it computed, all under the
// first traced decision; a one-worker flush keeps one kernel span per net
// and, having no helpers, never records a wait for them.
func TestFlushTraceSpansPerWorkerSpan(t *testing.T) {
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(false) })
	a, b := testTTP(3), testTTP(4)
	waits := obs.Default.Histogram("fleet_flush_wait_ns")
	for _, workers := range []int{1, 3} {
		tr := obs.NewTracer(1, 1024)
		obs.SetTracer(tr)
		t.Cleanup(func() { obs.SetTracer(nil) })
		svc := newInferenceService(workers)
		t.Cleanup(svc.stop)
		for i, d := range stageFlush(t, a, b) {
			svc.EnqueueTraced(d.dp.Pending(), uint64(7+i), uint64(100+i))
		}
		waited := waits.Snapshot().Count
		svc.Flush()
		if workers == 1 && (waits.Snapshot().Count != waited || len(svc.spans) != svc.batches) {
			t.Fatalf("one worker: %d spans over %d nets, wait recorded %v",
				len(svc.spans), svc.batches, waits.Snapshot().Count != waited)
		}
		got := map[string]int{}
		for _, sp := range tr.Snapshot() {
			if sp.Trace != 7 || sp.Parent != 100 {
				t.Fatalf("%s span under trace %d, parent %d; want the first traced decision's", sp.Name, sp.Trace, sp.Parent)
			}
			got[sp.Name]++
		}
		if got["infer_flush"] != 1 || got["kernel"] != len(svc.spans) {
			t.Errorf("workers %d: %d infer_flush and %d kernel spans, want 1 and %d",
				workers, got["infer_flush"], got["kernel"], len(svc.spans))
		}
	}
}

// TestFlushHelperPanicReachesCaller: a panic inside a helper's span is
// raised on the flushing goroutine, with the helper's stack, once every
// span is done, instead of killing the process from the helper; the helper
// survives it and stops with the service. Each flush is a long span and a
// panicking one; which worker claims first is the scheduler's choice, so
// flushes alternate the order until a helper has caught the panic.
func TestFlushHelperPanicReachesCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	ttp := testTTP(3)
	svc := newInferenceService(2)
	sizes := make([]float64, 2000)
	for i := range sizes {
		sizes[i] = 1e3 * float64(i+1)
	}
	long := func(step int) []core.PendingStep {
		dp := core.NewDeferredPredictor(core.NewPredictor(ttp, core.ModeProbabilistic))
		var o abr.Observation
		dp.PredictDistBatch(&o, step, sizes, make([]float64, len(sizes)*abr.NumBins))
		return dp.Pending()
	}
	// A feature matrix shorter than its rows: copying it panics.
	bad := func(step int) []core.PendingStep {
		return []core.PendingStep{{Net: ttp.Nets[step], Rows: 4, Feats: make([]float64, 1)}}
	}
	layouts := [2][2][]core.PendingStep{{long(0), bad(1)}, {bad(2), long(3)}}

	flush := func(layout [2][]core.PendingStep) (worker string) {
		defer func() {
			p := recover()
			err, ok := p.(error)
			if !ok || !strings.Contains(err.Error(), "slice bounds out of range") {
				t.Fatalf("flush raised %v, want the slice-bounds panic", p)
			}
			worker = err.Error()[:strings.Index(err.Error(), " panicked")]
		}()
		svc.Enqueue(layout[0])
		svc.Enqueue(layout[1])
		svc.Flush()
		return ""
	}
	caught := false
	for i := 0; i < 100 && !caught; i++ {
		caught = strings.HasSuffix(flush(layouts[i%2]), "on worker 1")
	}
	if !caught {
		t.Fatal("no helper claimed the panicking span in 100 flushes")
	}
	svc.stop()
	waitGoroutines(t, before)
}

// waitGoroutines waits for the process's goroutine count to fall back to
// want: exiting goroutines signal their WaitGroups before they are gone.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: a helper outlived its service", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}
