package fleet

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"

	"puffer/internal/core"
	"puffer/internal/nn"
	"puffer/internal/obs"
)

// Inference-service metrics (write-only; see the obs package contract).
// The aggregate fields on InferenceService stay the deterministic record —
// these duplicate them into the wall-side registry with timing added.
var (
	svcBatchRows    = obs.Default.Histogram("fleet_batch_rows")
	svcFlushNS      = obs.Default.Histogram("fleet_flush_ns")
	svcFlushWaitNS  = obs.Default.Histogram("fleet_flush_wait_ns")
	svcFlushesTotal = obs.Default.Counter("fleet_flushes_total")
	svcFlushesEmpty = obs.Default.Counter("fleet_flushes_empty_total")
	svcRowsTotal    = obs.Default.Counter("fleet_rows_total")
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
// What the service adds is not a faster kernel but few kernel launches per
// net per tick instead of one per session, spread over the service's
// workers, and the occupancy telemetry that goes with it. A service of w
// workers cuts each net's batch at step boundaries into w contiguous spans
// of about equal rows; the flushing goroutine and w−1 helper goroutines
// claim spans in order until none is left, each on its own workspace, so
// one worker is the plain serial pass and a helper that wakes late leaves
// its share to the others. A group lives for one flush: it holds one net's
// steps from its first enqueue to the flush, in a slot the next flush
// reuses (workspaces too, while the net's layer sizes match), so a model
// rotation leaves nothing of the retired nets behind. Rows are bitwise
// identical to the per-session path however they are batched, split or
// shared out. Not safe for concurrent use.
type InferenceService struct {
	groups  []*serviceGroup // slots; the first staged hold this flush's nets, in first-enqueue order
	staged  int
	workers int
	wake    []chan uint64 // per helper: the seq of the flush to join
	alive   sync.WaitGroup
	// The flush's feature rows and softmax outputs, span after span, and
	// their lengths so far while the flush is cut.
	feats, probs       []float64
	featsLen, probsLen int

	// The flush in progress, shared with the helpers under mu: its spans,
	// the next one to claim, how many are not finished yet, and whether
	// the flusher waits on fin for the last one.
	mu       sync.Mutex
	seq      uint64
	spans    []flushSpan
	next     int
	left     int
	waiting  bool
	panicked error // the first span's recovered panic, raised by the flusher
	fin      chan struct{}

	// The traced decision the next flush is attributed to (EnqueueTraced).
	trace, span uint64
	// The flush in progress: its tracer (nil when untraced) and the
	// decision its spans go under.
	tr                 *obs.Tracer
	flushTrace, parent uint64

	// Aggregate counters (deterministic for a deterministic workload).
	flushes  int
	batches  int
	rows     int64
	maxBatch int
}

// serviceGroup is the per-net batch under assembly.
type serviceGroup struct {
	net    *nn.MLP
	sizes  []int                // the layer sizes ws were built for
	ws     []*nn.BatchWorkspace // one per worker
	pend   []*core.PendingStep
	rowSum int
}

// flushSpan is a contiguous run of one group's pending steps, computed by
// whichever worker claims it, in its own region of the flush's buffers.
type flushSpan struct {
	g            *serviceGroup
	lo, hi       int // g.pend[lo:hi]
	rows         int
	feats, probs int // offsets of its rows in the service's feats and probs
}

// NewInferenceService returns an empty one-worker service: every flush runs
// on the flushing goroutine.
func NewInferenceService() *InferenceService { return newInferenceService(1) }

// newInferenceService returns an empty service that splits each flush over
// workers, starting workers−1 helper goroutines; stop ends them.
func newInferenceService(workers int) *InferenceService {
	s := &InferenceService{
		workers: workers,
		wake:    make([]chan uint64, workers-1),
		fin:     make(chan struct{}, 1),
	}
	for i := range s.wake {
		s.wake[i] = make(chan uint64, 1)
		s.alive.Add(1)
		go s.help(i + 1)
	}
	return s
}

// stop ends the helper goroutines and waits for them to exit. The service
// must not flush again.
func (s *InferenceService) stop() {
	for _, c := range s.wake {
		close(c)
	}
	s.alive.Wait()
}

// help is helper w: it joins every flush it is woken for, until stop.
func (s *InferenceService) help(w int) {
	defer s.alive.Done()
	for seq := range s.wake[w-1] {
		s.work(w, seq)
	}
}

// spanPanic carries a span's panic, with the stack of the worker that hit
// it, to the flushing goroutine, which panics with it.
type spanPanic struct {
	worker int // 0 is the flushing goroutine
	val    any
	stack  []byte
}

func (p *spanPanic) Error() string {
	return fmt.Sprintf("fleet: inference flush span on worker %d panicked: %v\n\n%s", p.worker, p.val, p.stack)
}

// Enqueue stages one session's pending steps into the current batch. The
// steps (and their buffers) must stay valid until the next Flush returns.
func (s *InferenceService) Enqueue(steps []core.PendingStep) {
	for i := range steps {
		ps := &steps[i]
		g := s.group(ps.Net)
		g.pend = append(g.pend, ps)
		g.rowSum += ps.Rows
	}
}

// group returns net's group in the flush being staged, putting a net new to
// it in the next slot.
func (s *InferenceService) group(net *nn.MLP) *serviceGroup {
	for _, g := range s.groups[:s.staged] {
		if g.net == net {
			return g
		}
	}
	if s.staged == len(s.groups) {
		s.groups = append(s.groups, &serviceGroup{ws: make([]*nn.BatchWorkspace, s.workers)})
	}
	g := s.groups[s.staged]
	s.staged++
	g.net = net
	if !slices.Equal(g.sizes, net.Sizes) {
		g.sizes = net.Sizes
		for w := range g.ws {
			g.ws[w] = net.NewBatchWorkspace(64)
		}
	}
	return g
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

// Flush executes the cross-session batch of each net over everything staged
// since the previous flush, split over the service's workers, and completes
// every step's distributions. When a traced decision was enqueued
// (EnqueueTraced), the flush records its infer_flush span and one kernel
// span per computed span of a net under that decision's root. The
// attribution lives in the service, not in process-wide state, so services
// flushing at once never take each other's spans. A panic inside a span,
// on any worker, is raised here, on the flushing goroutine, once every span
// is done and the batch is cleared.
func (s *InferenceService) Flush() {
	s.tr, s.flushTrace, s.parent = obs.Tracing(), s.trace, s.span
	s.trace, s.span = 0, 0
	if s.flushTrace == 0 {
		s.tr = nil
	}
	t0 := obs.Now()
	s.mu.Lock()
	s.seq++
	s.spans, s.featsLen, s.probsLen = s.spans[:0], 0, 0
	var totalRows int64
	for _, g := range s.groups[:s.staged] {
		if g.rowSum == 0 {
			continue
		}
		s.cut(g)
		totalRows += int64(g.rowSum)
		s.batches++
		s.rows += int64(g.rowSum)
		if g.rowSum > s.maxBatch {
			s.maxBatch = g.rowSum
		}
		svcBatchRows.Observe(int64(g.rowSum))
		svcRowsTotal.Add(int64(g.rowSum))
	}
	s.feats = growFloats(s.feats, s.featsLen)
	s.probs = growFloats(s.probs, s.probsLen)
	s.next, s.left = 0, len(s.spans)
	s.mu.Unlock()
	if totalRows == 0 {
		s.release()
		svcFlushesEmpty.Inc()
		return
	}
	helpers := s.wake[:min(len(s.wake), len(s.spans)-1)]
	for _, c := range helpers {
		select { // a wake a late helper never took is stale: replace it
		case <-c:
		default:
		}
		c <- s.seq
	}
	if len(helpers) > 0 {
		// The last helper woken waits in this P's next-to-run slot, which
		// an idle P steals only after a sleep that costs about as long as
		// a span: yield, so the helper starts here at once and an idle P
		// resumes the flusher from the global queue.
		runtime.Gosched()
	}
	s.work(0, s.seq)
	s.mu.Lock()
	s.waiting = s.left > 0
	wait := s.waiting
	s.mu.Unlock()
	if wait {
		tw := obs.Now()
		<-s.fin
		svcFlushWaitNS.ObserveSince(tw)
	}
	s.release()
	if p := s.panicked; p != nil {
		s.panicked = nil
		panic(p)
	}
	s.flushes++
	svcFlushesTotal.Inc()
	svcFlushNS.ObserveSince(t0)
	if s.tr != nil {
		s.record("infer_flush", t0, totalRows)
	}
}

// release empties the flush's groups and drops their nets and steps (which
// point at their nets), so the slots keep only their workspaces.
func (s *InferenceService) release() {
	for _, g := range s.groups[:s.staged] {
		clear(g.pend)
		g.net, g.pend, g.rowSum = nil, g.pend[:0], 0
	}
	s.staged = 0
}

// cut appends g's pending steps to the flush as up to s.workers contiguous
// spans balanced by rows: a step goes to the span its first row's offset
// falls in, so a group with fewer steps than workers has fewer spans.
func (s *InferenceService) cut(g *serviceGroup) {
	sp := flushSpan{g: g}
	span, cum := 0, 0
	for i, ps := range g.pend {
		if w := cum * s.workers / g.rowSum; w != span {
			s.addSpan(sp)
			sp, span = flushSpan{g: g, lo: i}, w
		}
		sp.hi = i + 1
		sp.rows += ps.Rows
		cum += ps.Rows
	}
	s.addSpan(sp)
}

// addSpan appends sp, unless it has no rows, to the flush, its rows after
// the previous span's in the flush's buffers.
func (s *InferenceService) addSpan(sp flushSpan) {
	if sp.rows == 0 {
		return
	}
	sp.feats, sp.probs = s.featsLen, s.probsLen
	s.featsLen += sp.rows * sp.g.net.InputSize()
	s.probsLen += sp.rows * sp.g.net.OutputSize()
	s.spans = append(s.spans, sp)
}

// work claims spans of flush seq for worker w until none is left, and
// computes each. A helper woken for a flush that is already over finds
// nothing to claim. A span that panics counts as finished, and its panic
// is kept for the flusher to raise once the rest are done.
func (s *InferenceService) work(w int, seq uint64) {
	for {
		s.mu.Lock()
		if s.seq != seq || s.next == len(s.spans) {
			s.mu.Unlock()
			return
		}
		sp := s.spans[s.next]
		s.next++
		s.mu.Unlock()
		p := s.runSpan(w, sp)
		s.mu.Lock()
		if p != nil && s.panicked == nil {
			s.panicked = p
		}
		s.left--
		if s.left == 0 && s.waiting {
			s.waiting = false
			s.fin <- struct{}{}
		}
		s.mu.Unlock()
	}
}

// runSpan computes one span on worker w's workspace: one batched pass over
// its steps' rows, then Finish for exactly those steps. It returns what the
// span panicked with, so no worker unwinds while others still compute.
func (s *InferenceService) runSpan(w int, sp flushSpan) (p error) {
	defer func() {
		if v := recover(); v != nil {
			p = &spanPanic{worker: w, val: v, stack: debug.Stack()}
		}
	}()
	g := sp.g
	dim, nOut := g.net.InputSize(), g.net.OutputSize()
	feats := s.feats[sp.feats : sp.feats+sp.rows*dim]
	probs := s.probs[sp.probs : sp.probs+sp.rows*nOut]
	at := 0
	for _, ps := range g.pend[sp.lo:sp.hi] {
		copy(feats[at*dim:(at+ps.Rows)*dim], ps.Feats[:ps.Rows*dim])
		at += ps.Rows
	}
	var k0 int64
	if s.tr != nil {
		k0 = obs.Now()
	}
	g.net.Packed().PredictDistBatch(g.ws[w], feats, sp.rows, probs)
	if s.tr != nil {
		s.record("kernel", k0, int64(sp.rows))
	}
	at = 0
	for _, ps := range g.pend[sp.lo:sp.hi] {
		ps.Finish(probs[at*nOut : (at+ps.Rows)*nOut])
		at += ps.Rows
	}
	return nil
}

// record books one span of the traced flush in progress.
func (s *InferenceService) record(name string, start, rows int64) {
	s.tr.Record(obs.Span{Trace: s.flushTrace, ID: s.tr.NewSpanID(), Parent: s.parent,
		Name: name, Start: start, Dur: obs.SinceNS(start),
		Attrs: []obs.Attr{{Key: "rows", Val: rows}}})
}

// growFloats resizes s to n elements, reusing capacity when possible.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
