package serve

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"puffer/internal/abr"
	"puffer/internal/experiment"
	"puffer/internal/fleet"
	"puffer/internal/obs"
	"puffer/internal/wire"
)

// Client-side metrics: the load generator's own latency view (full round
// trip including the server's queue) and liveness gauges.
var (
	cliRTTNS          = obs.Default.Histogram("serve_client_rtt_ns")
	cliSessionsActive = obs.Default.Gauge("serve_client_sessions_active")
	cliSessionsTotal  = obs.Default.Counter("serve_client_sessions_total")
	cliDecisionsTotal = obs.Default.Counter("serve_client_decisions_total")
)

// LoadConfig drives one full trial against a running server.
type LoadConfig struct {
	// Addr is the server's host:port.
	Addr string
	// Plan is the trial to drive; a client-side (unwarmed) plan suffices.
	Plan *Plan
	// Timescale maps virtual seconds to wall seconds: sessions dial at
	// arrival*Timescale and pace their decisions to their virtual clocks,
	// so concurrency follows the arrival process's occupancy. 0 runs every
	// session as fast as the server answers.
	Timescale float64
	// Concurrency bounds simultaneously running sessions. Default: 256
	// when Timescale is 0 (a work pool), unlimited when pacing (the
	// arrival schedule is the limiter).
	Concurrency int
	// Logf, if set, receives progress lines. Default: silent.
	Logf func(format string, args ...any)
}

// dialTimeout and replyTimeout bound a load session's connection setup and
// each of its round trips (the handshake, every decision, the closing Bye).
const (
	dialTimeout  = 10 * time.Second
	replyTimeout = 120 * time.Second
)

// LoadResult is one finished load run.
type LoadResult struct {
	// Stats is the per-scheme pooled analysis — byte-identical to
	// RunVirtual of the same plan when every session succeeded.
	Stats []experiment.SchemeStats
	// Sessions ran; Failed of them errored (Stats is untrustworthy unless
	// Failed is 0).
	Sessions int
	Failed   int
	// Decisions is the total ABR decisions served over the wire.
	Decisions int64
	// ModelViolations counts sessions that saw more than one model
	// generation — the "no session served by two models" invariant,
	// expected 0 always.
	ModelViolations int64
	// PeakConcurrent is the high-water mark of simultaneously open
	// sessions; WallSeconds the measured wall time (not deterministic).
	PeakConcurrent int64
	WallSeconds    float64
}

// SessionsPerSec is the load generator's headline throughput figure.
func (r *LoadResult) SessionsPerSec() float64 {
	if r.WallSeconds <= 0 {
		return 0
	}
	return float64(r.Sessions) / r.WallSeconds
}

// sessionAbort unwinds a session whose connection failed; the driver
// recovers it at the session boundary.
type sessionAbort struct{ err error }

// stubAlg satisfies the Algorithm interface for client-side sessions: the
// real algorithm lives server-side, every decision routes through the
// remote hook, and Choose being unreachable is part of the contract.
type stubAlg struct{ name string }

func (a stubAlg) Name() string { return a.name }
func (stubAlg) Reset()         {}
func (stubAlg) Choose(*abr.Observation) int {
	panic("serve: stub algorithm asked to Choose — decisions must route through the remote hook")
}

// remote is the experiment.DecideHook that ships every decision over the
// session's connection. It also paces the session against wall time and
// verifies the single-model invariant.
type remote struct {
	c   net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	buf []byte
	out []byte

	arrival   float64
	start     time.Time
	timescale float64

	modelID    uint32
	violated   bool
	violations *atomic.Int64
	decisions  *atomic.Int64

	// Trace state: traced marks a session the deterministic sampler picked;
	// seq counts its decisions so each gets a distinct trace id.
	sessID int64
	traced bool
	seq    uint64
}

// Decide implements experiment.DecideHook by asking the server.
func (r *remote) Decide(_ abr.Algorithm, o *abr.Observation, now float64) int {
	if r.timescale > 0 {
		target := r.start.Add(time.Duration((r.arrival + now) * r.timescale * float64(time.Second)))
		if d := time.Until(target); d > 0 {
			time.Sleep(d)
		}
	}
	q, err := r.decide(o, now)
	if err != nil {
		panic(sessionAbort{err})
	}
	return q
}

func (r *remote) decide(o *abr.Observation, now float64) (int, error) {
	t0 := obs.Now()
	// A traced decision derives its deterministic trace id and carries it
	// (plus the root span id) in the Decide frame's trace extension, so the
	// server's stage spans join this client-side trace.
	var trace, root uint64
	tr := obs.Tracing()
	if tr != nil && r.traced {
		trace = obs.DecisionTraceID(r.sessID, r.seq)
		root = tr.NewSpanID()
		r.seq++
	}
	r.out = encodeDecide(r.out[:0], now, o, trace, root)
	r.c.SetWriteDeadline(time.Now().Add(replyTimeout))
	var s0 int64
	if trace != 0 {
		s0 = obs.Now()
	}
	if err := wire.WriteFrame(r.bw, msgDecide, r.out); err != nil {
		return 0, err
	}
	if err := r.bw.Flush(); err != nil {
		return 0, err
	}
	if trace != 0 {
		tr.Record(obs.Span{Trace: trace, ID: tr.NewSpanID(), Parent: root,
			Name: "client_send", Start: s0, Dur: obs.SinceNS(s0)})
	}
	r.c.SetReadDeadline(time.Now().Add(replyTimeout))
	typ, payload, buf, err := wire.ReadFrame(r.br, r.buf, maxFrame)
	r.buf = buf
	if err != nil {
		return 0, err
	}
	if typ == msgError {
		rd := wire.NewReader(payload)
		return 0, fmt.Errorf("serve: server error: %s", rd.Str())
	}
	if typ != msgDecideOK {
		return 0, fmt.Errorf("serve: unexpected reply type 0x%02x", typ)
	}
	rd := wire.NewReader(payload)
	q := rd.I32()
	mid := rd.U32()
	if err := rd.Done(); err != nil {
		return 0, err
	}
	if mid != r.modelID && !r.violated {
		r.violated = true
		r.violations.Add(1)
	}
	if t0 != 0 {
		cliRTTNS.Observe(obs.SinceNS(t0))
	}
	if trace != 0 {
		tr.Record(obs.Span{Trace: trace, ID: root, Name: obs.WireRTT,
			Start: t0, Dur: obs.SinceNS(t0),
			Attrs: []obs.Attr{
				{Key: "session", Val: r.sessID},
				{Key: "seq", Val: int64(r.seq - 1)},
				{Key: "chunk", Val: int64(o.ChunkIndex)},
			}})
	}
	r.decisions.Add(1)
	cliDecisionsTotal.Inc()
	return q, nil
}

// loader is one RunLoad in progress.
type loader struct {
	cfg        LoadConfig
	plan       *Plan
	start      time.Time
	decisions  atomic.Int64
	violations atomic.Int64
	active     atomic.Int64
	peak       atomic.Int64
}

// RunLoad drives the plan's full trial against the server at cfg.Addr: one
// TCP connection per session, arrivals on the plan's schedule, every ABR
// decision served remotely. Session outcomes fold through the canonical
// sharded aggregation with the daily loop's analysis seed, so a clean run
// reproduces the day's per-scheme stats byte for byte.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	p := cfg.Plan
	if p == nil {
		return nil, fmt.Errorf("serve: LoadConfig.Plan is required")
	}
	if cfg.Addr == "" {
		return nil, fmt.Errorf("serve: LoadConfig.Addr is required")
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	n := p.Sessions
	arrivals := fleet.ArrivalTimes(p.Arrivals, p.TrialSeed, n)
	ld := &loader{cfg: cfg, plan: p, start: time.Now()}

	results := make([]experiment.SessionResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	if cfg.Timescale > 0 {
		// Paced mode: every session is a goroutine sleeping until its
		// arrival; concurrency is whatever the arrival process produces.
		var sem chan struct{}
		if cfg.Concurrency > 0 {
			sem = make(chan struct{}, cfg.Concurrency)
		}
		for id := 0; id < n; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				target := ld.start.Add(time.Duration(arrivals[id] * cfg.Timescale * float64(time.Second)))
				if d := time.Until(target); d > 0 {
					time.Sleep(d)
				}
				if sem != nil {
					sem <- struct{}{}
					defer func() { <-sem }()
				}
				results[id], errs[id] = ld.runSession(id, arrivals[id])
			}(id)
		}
	} else {
		// Throughput mode: a bounded work pool, ids in order.
		workers := cfg.Concurrency
		if workers <= 0 {
			workers = 256
		}
		if workers > n {
			workers = n
		}
		ids := make(chan int)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for id := range ids {
					results[id], errs[id] = ld.runSession(id, arrivals[id])
				}
			}()
		}
		go func() {
			for id := 0; id < n; id++ {
				ids <- id
			}
			close(ids)
		}()
	}
	wg.Wait()

	res := &LoadResult{
		Sessions:        n,
		Decisions:       ld.decisions.Load(),
		ModelViolations: ld.violations.Load(),
		PeakConcurrent:  ld.peak.Load(),
		WallSeconds:     time.Since(ld.start).Seconds(),
	}
	for id, err := range errs {
		if err != nil {
			if res.Failed < 3 {
				cfg.Logf("serve: session %d failed: %v", id, err)
			}
			res.Failed++
		}
	}
	acc := experiment.FoldShards(n, p.ShardSize,
		func(id int) *experiment.SessionResult { return &results[id] })
	res.Stats = acc.Analyze(p.AnalysisSeed)
	return res, nil
}

// runSession opens one connection and drives one full session through the
// real experiment code, every decision remote.
func (ld *loader) runSession(id int, arrival float64) (res experiment.SessionResult, err error) {
	p := ld.plan
	// The blinded arm assignment is the first draw of the session RNG;
	// replaying it here names the scheme for the handshake without
	// perturbing the session's own RNG stream (RunOneHooked re-derives it).
	armRNG := rand.New(rand.NewSource(experiment.Mix(p.TrialSeed, int64(id))))
	scheme := p.SchemeNames[armRNG.Intn(len(p.SchemeNames))]

	c, err := net.DialTimeout("tcp", ld.cfg.Addr, dialTimeout)
	if err != nil {
		return res, fmt.Errorf("dial: %w", err)
	}
	defer c.Close()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	h := &remote{
		c: c, br: bufio.NewReaderSize(c, 4<<10), bw: bufio.NewWriterSize(c, 16<<10),
		arrival: arrival, start: ld.start, timescale: ld.cfg.Timescale,
		violations: &ld.violations, decisions: &ld.decisions,
		sessID: int64(id),
	}
	if tr := obs.Tracing(); tr != nil && tr.Sampled(int64(id)) {
		h.traced = true
	}

	// Handshake.
	c.SetWriteDeadline(time.Now().Add(replyTimeout))
	hb := encodeHello(nil, &hello{
		Version: ProtoVersion, Day: p.Day, Session: id, Scheme: scheme, PlanHash: p.Hash,
	})
	if err := wire.WriteFrame(h.bw, msgHello, hb); err != nil {
		return res, fmt.Errorf("hello: %w", err)
	}
	if err := h.bw.Flush(); err != nil {
		return res, fmt.Errorf("hello: %w", err)
	}
	c.SetReadDeadline(time.Now().Add(replyTimeout))
	typ, payload, buf, err := wire.ReadFrame(h.br, h.buf, maxFrame)
	h.buf = buf
	if err != nil {
		return res, fmt.Errorf("hello reply: %w", err)
	}
	if typ == msgError {
		rd := wire.NewReader(payload)
		return res, fmt.Errorf("server rejected session: %s", rd.Str())
	}
	if typ != msgHelloOK {
		return res, fmt.Errorf("unexpected hello reply type 0x%02x", typ)
	}
	rd := wire.NewReader(payload)
	h.modelID = rd.U32()
	if err := rd.Done(); err != nil {
		return res, err
	}

	cliSessionsTotal.Inc()
	raiseTo(&ld.peak, ld.active.Add(1))
	cliSessionsActive.Set(float64(ld.active.Load()))
	defer func() {
		cliSessionsActive.Set(float64(ld.active.Add(-1)))
		if v := recover(); v != nil {
			if a, ok := v.(sessionAbort); ok {
				err = a.err
				return
			}
			panic(v)
		}
	}()

	// The real session, with stub algorithms and the remote hook: the
	// simulation (paths, player, viewer behavior) runs here; every
	// decision runs server-side.
	schemes := make([]experiment.Scheme, len(p.SchemeNames))
	for i, name := range p.SchemeNames {
		name := name
		schemes[i] = experiment.Scheme{Name: name, New: func() abr.Algorithm { return stubAlg{name} }}
	}
	trial := experiment.Config{
		Env:      p.Env,
		Schemes:  schemes,
		Sessions: p.Sessions,
		Seed:     p.TrialSeed,
		Day:      p.Day,
	}
	res = trial.RunOneHooked(id, h)

	// Clean close: Bye/ByeOK, best effort.
	c.SetWriteDeadline(time.Now().Add(replyTimeout))
	if err := wire.WriteFrame(h.bw, msgBye, nil); err == nil && h.bw.Flush() == nil {
		c.SetReadDeadline(time.Now().Add(replyTimeout))
		wire.ReadFrame(h.br, h.buf, maxFrame)
	}
	return res, nil
}

// raiseTo lifts m to v unless m already holds at least v. A concurrent
// raiser can never overwrite a higher value with a lower one.
func raiseTo(m *atomic.Int64, v int64) {
	for cur := m.Load(); v > cur && !m.CompareAndSwap(cur, v); cur = m.Load() {
	}
}
