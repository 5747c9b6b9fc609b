package serve

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"puffer/internal/abr"
	"puffer/internal/core"
	"puffer/internal/fleet"
	"puffer/internal/obs"
	"puffer/internal/wire"
)

// Registry names of the serving-layer metrics. The daemon's /metrics
// endpoint (obscli's -obs-listen) publishes them; the soak harness asserts
// on them by name.
const (
	// MetricDecisionNS is the server-side decision compute latency
	// (prepare + finish spans, excluding queue wait) — the wall-clock
	// counterpart of fleet_decision_ns.
	MetricDecisionNS = "serve_decision_ns"
	// MetricRequestNS is the full server-side request latency: compute
	// plus queue wait plus batching, from a decoded request to its
	// decision (the reply write excluded).
	MetricRequestNS = "serve_request_ns"
	// MetricBatchSessions is the per-flush batch size in decision requests
	// (fleet_batch_rows, fed by the shared InferenceService, keeps the
	// per-net row shape).
	MetricBatchSessions = "serve_batch_sessions"
	// MetricClockViolations counts Decide requests whose session clock ran
	// backwards — an invariant the soak harness pins at zero.
	MetricClockViolations = "serve_clock_violations_total"
	// MetricQueueFull counts enqueues that found the decision queue full
	// and had to block (backpressure engaging).
	MetricQueueFull = "serve_queue_full_total"
)

var (
	srvDecisionNS      = obs.Default.Histogram(MetricDecisionNS)
	srvRequestNS       = obs.Default.Histogram(MetricRequestNS)
	srvBatchSessions   = obs.Default.Histogram(MetricBatchSessions)
	srvSessionsActive  = obs.Default.Gauge("serve_sessions_active")
	srvSessionsTotal   = obs.Default.Counter("serve_sessions_total")
	srvCompletedTotal  = obs.Default.Counter("serve_sessions_completed_total")
	srvAbortedTotal    = obs.Default.Counter("serve_sessions_aborted_total")
	srvDecisionsTotal  = obs.Default.Counter("serve_decisions_total")
	srvClockViolations = obs.Default.Counter(MetricClockViolations)
	srvQueueFull       = obs.Default.Counter(MetricQueueFull)
	srvProtoErrors     = obs.Default.Counter("serve_proto_errors_total")
	srvRotationsTotal  = obs.Default.Counter("serve_model_rotations_total")
	srvModelGen        = obs.Default.Gauge("serve_model_generation")
)

// Config tunes the server. Like the fleet engine's Config, nothing here
// changes results — only scheduling, batching, and protection limits.
type Config struct {
	// Plan is the warmed plan to serve (required; Warm must have run).
	Plan *Plan
	// MaxBatch caps decision requests per inference flush. Default: 256.
	MaxBatch int
	// QueueDepth bounds the decision queue; a full queue blocks connection
	// handlers (backpressure propagates to the client via TCP). Default:
	// 1024.
	QueueDepth int
	// ReadTimeout evicts a connection idle longer than this between
	// frames (its first frame must also arrive within handshakeTimeout);
	// WriteTimeout bounds each reply write. Defaults: 120s, 30s.
	ReadTimeout  time.Duration
	WriteTimeout time.Duration
	// DrainTimeout bounds how long Shutdown waits for in-flight requests
	// before force-closing connections. Default: 10s.
	DrainTimeout time.Duration
	// Logf, if set, receives lifecycle lines. Default: silent.
	Logf func(format string, args ...any)
}

// Server hosts one plan behind real sockets. One TCP connection is one
// session: its ABR algorithm lives server-side for the connection's
// lifetime and is destroyed with it, so a session is structurally bound to
// the single model generation it was created under.
type Server struct {
	cfg  Config
	plan *Plan

	ln    net.Listener
	queue chan *pending

	mu      sync.Mutex // guards conns and the (slot, modelID) pair
	conns   map[net.Conn]struct{}
	modelID uint32

	connWG      sync.WaitGroup
	batcherDone chan struct{}
	draining    atomic.Bool
	closed      atomic.Bool

	// Deterministic aggregates for the drain summary.
	sessions  atomic.Uint64
	completed atomic.Uint64
	decisions atomic.Uint64
	active    atomic.Int64
}

// handshakeTimeout caps the wait for a connection's first frame, so a peer
// that connects and says nothing does not hold a handler for ReadTimeout.
const handshakeTimeout = 10 * time.Second

// session is one connection's server-side state, owned by its handler,
// which decodes each request into obs, runs both halves of the decision on
// dec and writes the reply. Only req is ever seen by another goroutine.
type session struct {
	id      int
	dec     *fleet.Staged
	modelID uint32

	obs       abr.Observation
	lastNow   float64
	started   bool
	decisions uint64
	req       pending
}

// pending is the part of a decision request the batcher sees. A connection
// has one request in flight at a time, so it lives in the session: the
// handler fills it, queues its address, and leaves it alone until the
// batcher answers on reply with the stamp at which it drained the request's
// batch from the queue (0 while recording is off).
type pending struct {
	rows        []core.PendingStep // staged by Prepare; nil for an arm with no TTP
	trace, span uint64             // a sampled decision's server_request span; 0 = untraced
	reply       chan int64         // buffered 1: the batcher never waits on a handler
}

// NewServer builds a server around a warmed plan.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Plan == nil || cfg.Plan.Schemes == nil {
		return nil, fmt.Errorf("serve: Config.Plan must be a warmed plan")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 256
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 120 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 30 * time.Second
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:         cfg,
		plan:        cfg.Plan,
		queue:       make(chan *pending, cfg.QueueDepth),
		conns:       make(map[net.Conn]struct{}),
		batcherDone: make(chan struct{}),
		modelID:     1,
	}
	srvModelGen.Set(1)
	go s.batcher()
	return s, nil
}

// Serve accepts connections on ln until Shutdown. It returns nil after a
// clean drain. A Shutdown that ran before Serve registered ln never saw it,
// so Serve closes ln itself and returns nil at once. A temporary accept
// error (EMFILE, ENFILE: the process or host is out of file descriptors) is
// logged and retried after a pause that doubles from 5 ms up to 1 s, as
// net/http's server does, so that running out of descriptors under load
// does not end the server; any other accept error is returned.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed.Load() {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	var pause time.Duration
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			if ne, ok := err.(net.Error); ok && ne.Temporary() {
				pause = min(max(2*pause, 5*time.Millisecond), time.Second)
				s.cfg.Logf("serve: accept: %v; retrying in %v", err, pause)
				time.Sleep(pause)
				continue
			}
			return err
		}
		pause = 0
		if tc, ok := c.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.handle(c)
	}
}

// Rotate atomically publishes a fresh clone of the served model and bumps
// the model generation. In-flight sessions keep the algorithm (and model)
// they were created with; only sessions opened after Rotate see the new
// generation — the paper's nightly rotation contract. Cloning preserves
// weights bit for bit, so rotation never changes results; it exists so the
// soak harness can prove the "no session served by two models" invariant
// under churn. No-op before a model exists (day 0).
func (s *Server) Rotate() {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.plan.Slot.Load()
	if cur == nil {
		return
	}
	s.plan.Slot.Store(cur.Clone())
	s.modelID++
	srvRotationsTotal.Inc()
	srvModelGen.Set(float64(s.modelID))
	s.cfg.Logf("serve: rotated model (generation %d)", s.modelID)
}

// Shutdown drains and stops the server: stop accepting, kick parked
// readers so handlers finish their in-flight request and exit, then stop
// the batcher. Safe to call more than once.
func (s *Server) Shutdown() {
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		// Wake handlers parked between frames; in-flight decisions still
		// complete (the deadline only fails the *next* read).
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() { s.connWG.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		s.cfg.Logf("serve: drain timeout after %s; force-closing connections", s.cfg.DrainTimeout)
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
	close(s.queue)
	<-s.batcherDone
	s.cfg.Logf("serve: drained (%d sessions, %d completed, %d decisions)",
		s.sessions.Load(), s.completed.Load(), s.decisions.Load())
}

// Summary reports the server's deterministic aggregates.
func (s *Server) Summary() (sessions, completed, decisions uint64) {
	return s.sessions.Load(), s.completed.Load(), s.decisions.Load()
}

// handle runs one connection: handshake, then a decide loop until Bye,
// error, or drain.
func (s *Server) handle(c net.Conn) {
	defer s.connWG.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	br := bufio.NewReaderSize(c, 16<<10)
	bw := bufio.NewWriterSize(c, 4<<10)
	var buf, out []byte

	fail := func(msg string) {
		srvProtoErrors.Inc()
		c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
		wire.WriteFrame(bw, msgError, wire.AppendStr(out[:0], msg))
		bw.Flush()
	}
	// lost counts a session that ends on a failed read or reply write,
	// unless the server is draining, which ends sessions on purpose.
	lost := func() {
		if !s.draining.Load() {
			srvAbortedTotal.Inc()
		}
	}

	// Handshake.
	c.SetReadDeadline(time.Now().Add(min(s.cfg.ReadTimeout, handshakeTimeout)))
	typ, payload, buf, err := wire.ReadFrame(br, buf, maxFrame)
	if err != nil {
		return
	}
	if typ != msgHello {
		fail("expected Hello")
		return
	}
	h, err := decodeHello(payload)
	if err != nil {
		fail(fmt.Sprintf("bad Hello: %v", err))
		return
	}
	if h.Version != ProtoVersion {
		fail(fmt.Sprintf("protocol version %d, server speaks %d", h.Version, ProtoVersion))
		return
	}
	if h.PlanHash != s.plan.Hash {
		fail(fmt.Sprintf("plan mismatch: client %s, server %s", h.PlanHash, s.plan.Hash))
		return
	}
	scheme, ok := s.plan.Scheme(h.Scheme)
	if !ok {
		fail(fmt.Sprintf("unknown scheme %q for day %d", h.Scheme, h.Day))
		return
	}

	// Bind the session to the current model generation: the factory reads
	// the slot and the generation is recorded under the same lock Rotate
	// takes, so the pair can never tear.
	sess := &session{id: h.Session, req: pending{reply: make(chan int64, 1)}}
	s.mu.Lock()
	alg := scheme.New()
	sess.modelID = s.modelID
	s.mu.Unlock()
	sess.dec = fleet.NewStaged(alg)
	s.sessions.Add(1)
	srvSessionsTotal.Inc()
	srvSessionsActive.Set(float64(s.active.Add(1)))
	defer func() { srvSessionsActive.Set(float64(s.active.Add(-1))) }()

	c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
	if wire.WriteFrame(bw, msgHelloOK, wire.AppendU32(out[:0], sess.modelID)) != nil || bw.Flush() != nil {
		lost()
		return
	}

	// Decide loop.
	for {
		c.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		typ, payload, buf, err = wire.ReadFrame(br, buf, maxFrame)
		if err != nil {
			lost()
			return
		}
		switch typ {
		case msgDecide:
			now, traceID, parentSpan, err := decodeDecide(payload, &sess.obs)
			if err != nil {
				fail(fmt.Sprintf("bad Decide: %v", err))
				srvAbortedTotal.Inc()
				return
			}
			enq := obs.Now()
			if sess.started && now < sess.lastNow {
				srvClockViolations.Inc()
			}
			sess.started, sess.lastNow = true, now
			if sess.obs.ChunkIndex == 0 {
				// Stream start: runStream resets per-stream algorithm
				// state before its first decision; resets are idempotent
				// and never touch exploration RNGs, so this reproduces
				// the inline path exactly.
				sess.dec.Reset()
			}
			p := &sess.req
			p.rows = sess.dec.Prepare(&sess.obs)
			p.trace, p.span = 0, 0
			tr := obs.Tracing()
			if tr != nil && traceID != 0 {
				p.trace, p.span = traceID, tr.NewSpanID()
			}
			select {
			case s.queue <- p:
			default:
				srvQueueFull.Inc()
				s.queue <- p
			}
			drained := <-p.reply
			q := sess.dec.Finish(&sess.obs)
			sess.dec.Record(srvDecisionNS, p.trace, p.span, drained)
			if enq != 0 {
				srvRequestNS.Observe(obs.SinceNS(enq))
			}
			sess.decisions++
			srvDecisionsTotal.Inc()
			s.decisions.Add(1)
			out = wire.AppendU32(wire.AppendI32(out[:0], q), sess.modelID)
			c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			var w0 int64
			if p.trace != 0 {
				w0 = obs.Now()
			}
			if wire.WriteFrame(bw, msgDecideOK, out) != nil || bw.Flush() != nil {
				lost()
				return
			}
			if p.trace != 0 {
				queued := sess.dec.PrepareEnd()
				tr.Record(obs.Span{Trace: p.trace, ID: tr.NewSpanID(), Parent: p.span,
					Name: "queue_wait", Start: queued, Dur: drained - queued})
				tr.Record(obs.Span{Trace: p.trace, ID: tr.NewSpanID(), Parent: p.span,
					Name: "reply", Start: w0, Dur: obs.SinceNS(w0)})
				tr.Record(obs.Span{Trace: p.trace, ID: p.span, Parent: parentSpan,
					Name: "server_request", Start: enq, Dur: obs.SinceNS(enq),
					Attrs: []obs.Attr{
						{Key: "session", Val: int64(sess.id)},
						{Key: "chunk", Val: int64(sess.obs.ChunkIndex)},
						{Key: "quality", Val: int64(q)},
					}})
			}
		case msgBye:
			s.completed.Add(1)
			srvCompletedTotal.Inc()
			c.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))
			wire.WriteFrame(bw, msgByeOK, wire.AppendU64(out[:0], sess.decisions))
			bw.Flush()
			return
		default:
			fail(fmt.Sprintf("unexpected message type 0x%02x", typ))
			srvAbortedTotal.Inc()
			return
		}
	}
}

// batcher owns the one thing connections share, the InferenceService (not
// safe for concurrent use): it drains the queue in greedy batches, merges
// every request's staged rows, runs one batched flush per model, and wakes
// each handler to finish its own decision — the wall-clock mirror of the
// fleet engine's tick loop. It runs no algorithm code. Wake-up budget: a
// decision costs exactly two channel operations, the handler's send on
// queue and the batcher's send on reply, whether or not its arm has rows.
func (s *Server) batcher() {
	defer close(s.batcherDone)
	svc := fleet.NewInferenceService()
	batch := make([]*pending, 0, s.cfg.MaxBatch)
	for p := range s.queue {
		batch = append(batch[:0], p)
	drain:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case p, ok := <-s.queue:
				if !ok {
					break drain
				}
				batch = append(batch, p)
			default:
				break drain
			}
		}
		drained := obs.Now()
		for _, p := range batch {
			svc.EnqueueTraced(p.rows, p.trace, p.span)
		}
		svc.Flush()
		srvBatchSessions.Observe(int64(len(batch)))
		for _, p := range batch {
			p.reply <- drained
		}
	}
}
