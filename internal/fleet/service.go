package fleet

import (
	"puffer/internal/core"
	"puffer/internal/nn"
	"puffer/internal/obs"
)

// Inference-service metrics (write-only; see the obs package contract).
// The aggregate fields on InferenceService stay the deterministic record —
// these duplicate them into the wall-side registry with timing added.
var (
	svcBatchRows      = obs.Default.Histogram("fleet_batch_rows")
	svcFlushNS        = obs.Default.Histogram("fleet_flush_ns")
	svcFlushesTotal   = obs.Default.Counter("fleet_flushes_total")
	svcFlushesEmpty   = obs.Default.Counter("fleet_flushes_empty_total")
	svcRowsTotal      = obs.Default.Counter("fleet_rows_total")
	svcSnapshotsTotal = obs.Default.Counter("fleet_model_snapshots_total")
)

// InferenceService executes the staged prediction work of many concurrent
// sessions. Sessions park at their decision points with feature rows staged
// per horizon net (core.PendingStep); the service concatenates every row
// due in the current virtual tick into one batch per net and runs a single
// batched forward-plus-softmax pass over each, then finishes every step
// (throughput conversion, point-estimate collapse) exactly as the direct
// path would.
//
// Batches run on each net's own packed snapshot (nn.MLP.Packed: transposed
// weights, SIMD kernel) — the one every per-session core.Predictor runs on
// too, built once per model however many services and sessions share it.
// What the service adds is not a faster kernel but one kernel launch per
// net per tick instead of one per session, and the occupancy telemetry
// that goes with it. Groups are keyed by net identity, so a model rotation
// (new *nn.MLP values) starts new ones. Rows are bitwise identical to the
// per-session path regardless of how they are batched. Not safe for
// concurrent use.
type InferenceService struct {
	groups map[*nn.MLP]*serviceGroup
	order  []*serviceGroup // first-use order: deterministic iteration
	feats  []float64
	probs  []float64

	// The traced decision the next flush is attributed to (EnqueueTraced).
	trace, span uint64

	// Aggregate counters (deterministic for a deterministic workload).
	flushes   int
	batches   int
	rows      int64
	maxBatch  int
	snapshots int
}

// serviceGroup is the per-net batch under assembly.
type serviceGroup struct {
	net    *nn.MLP
	ws     *nn.BatchWorkspace
	pend   []*core.PendingStep
	rowSum int
}

// NewInferenceService returns an empty service.
func NewInferenceService() *InferenceService {
	return &InferenceService{groups: make(map[*nn.MLP]*serviceGroup)}
}

// Enqueue stages one session's pending steps into the current batch. The
// steps (and their buffers) must stay valid until the next Flush returns.
func (s *InferenceService) Enqueue(steps []core.PendingStep) {
	for i := range steps {
		ps := &steps[i]
		g, ok := s.groups[ps.Net]
		if !ok {
			g = &serviceGroup{net: ps.Net, ws: ps.Net.NewBatchWorkspace(64)}
			s.groups[ps.Net] = g
			s.order = append(s.order, g)
			s.snapshots++
			svcSnapshotsTotal.Inc()
		}
		g.pend = append(g.pend, ps)
		g.rowSum += ps.Rows
	}
}

// EnqueueTraced is Enqueue for a decision that may be traced (trace != 0,
// span its root span). One flush serves many decisions, so its infer_flush
// span and the kernel spans inside it go to exactly one of them: the first
// traced decision enqueued since the previous flush.
func (s *InferenceService) EnqueueTraced(steps []core.PendingStep, trace, span uint64) {
	if s.trace == 0 {
		s.trace, s.span = trace, span
	}
	s.Enqueue(steps)
}

// Flush executes one cross-session batch per net over everything staged
// since the previous flush and completes every step's distributions. When a
// traced decision was enqueued (EnqueueTraced), the flush records its
// infer_flush span and one kernel span per net under that decision's root.
// The attribution lives in the service, not in process-wide state, so
// services flushing at once never take each other's spans.
func (s *InferenceService) Flush() {
	tr, trace, parent := obs.Tracing(), s.trace, s.span
	s.trace, s.span = 0, 0
	if trace == 0 {
		tr = nil
	}
	span := func(name string, start, rows int64) {
		tr.Record(obs.Span{Trace: trace, ID: tr.NewSpanID(), Parent: parent,
			Name: name, Start: start, Dur: obs.SinceNS(start),
			Attrs: []obs.Attr{{Key: "rows", Val: rows}}})
	}
	t0 := obs.Now()
	any := false
	var totalRows int64
	for _, g := range s.order {
		if g.rowSum == 0 {
			continue
		}
		any = true
		totalRows += int64(g.rowSum)
		dim := g.net.InputSize()
		nOut := g.net.OutputSize()
		s.feats = growFloats(s.feats, g.rowSum*dim)
		s.probs = growFloats(s.probs, g.rowSum*nOut)
		at := 0
		for _, ps := range g.pend {
			copy(s.feats[at*dim:(at+ps.Rows)*dim], ps.Feats[:ps.Rows*dim])
			at += ps.Rows
		}
		var k0 int64
		if tr != nil {
			k0 = obs.Now()
		}
		g.net.Packed().PredictDistBatch(g.ws, s.feats[:g.rowSum*dim], g.rowSum, s.probs[:g.rowSum*nOut])
		if tr != nil {
			span("kernel", k0, int64(g.rowSum))
		}
		at = 0
		for _, ps := range g.pend {
			ps.Finish(s.probs[at*nOut : (at+ps.Rows)*nOut])
			at += ps.Rows
		}
		s.batches++
		s.rows += int64(g.rowSum)
		if g.rowSum > s.maxBatch {
			s.maxBatch = g.rowSum
		}
		svcBatchRows.Observe(int64(g.rowSum))
		svcRowsTotal.Add(int64(g.rowSum))
		g.pend = g.pend[:0]
		g.rowSum = 0
	}
	if any {
		s.flushes++
		svcFlushesTotal.Inc()
		svcFlushNS.ObserveSince(t0)
		if tr != nil {
			span("infer_flush", t0, totalRows)
		}
	} else {
		svcFlushesEmpty.Inc()
	}
}

// growFloats resizes s to n elements, reusing capacity when possible.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
