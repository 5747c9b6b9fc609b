package fleet

import (
	"container/heap"
	"fmt"
	"runtime"
	"sync"
	"time"

	"puffer/internal/abr"
	"puffer/internal/core"
	"puffer/internal/experiment"
	metrics "puffer/internal/obs"
	"puffer/internal/runner"
	"puffer/internal/telemetry"
)

// MetricDecisionNS is the registry name of the per-decision compute latency
// histogram: the prepare plus finish spans of one ABR decision, excluding
// the virtual-time park between them (wall time spent parked measures the
// scheduler, not the decision).
const MetricDecisionNS = "fleet_decision_ns"

var decisionNS = metrics.Default.Histogram(MetricDecisionNS)

// Config tunes the fleet engine. None of its fields change results — only
// scheduling, batching, and the occupancy record — which is the engine's
// core guarantee (see package doc).
type Config struct {
	// ShardSize replicates the session engine's aggregation shards so
	// the pooled accumulator folds in exactly the same order (byte
	// identity requires matching shard boundaries). Default (0):
	// experiment.DefaultShardSize.
	ShardSize int
	// Workers bounds how many parked sessions advance concurrently
	// between inference flushes. Default (0): GOMAXPROCS.
	Workers int
	// Arrivals draws session arrival times. Default (nil):
	// PoissonArrivals{Rate: 1}.
	Arrivals ArrivalProcess
	// Tick is the virtual-time window (seconds) whose due decisions are
	// collected into one cross-session inference flush. Larger ticks mean
	// bigger batches and coarser interleaving. Default (0): 0.25.
	Tick float64
}

// Stats describes one fleet run: the occupancy record and the inference
// service's batching counters. Everything except WallSeconds is
// deterministic for a deterministic trial.
type Stats struct {
	// FleetDayStats is the part of the record the daily loop checkpoints
	// per day: occupancy summary (over the virtual-time span from first
	// arrival to last departure), decision counts, and batch shape.
	runner.FleetDayStats
	// Sessions is the trial size.
	Sessions int
	// Occupancy counts concurrently live sessions over virtual time.
	Occupancy telemetry.ConcurrencySeries
	// ModelSnapshots is how many distinct nets the service batched for.
	ModelSnapshots int
	// WallSeconds is the measured wall-clock time of the run (not
	// deterministic; excluded from checkpoints).
	WallSeconds float64
}

// SessionsPerSec is the engine's headline throughput figure.
func (s *Stats) SessionsPerSec() float64 {
	if s.WallSeconds <= 0 {
		return 0
	}
	return float64(s.Sessions) / s.WallSeconds
}

// event is one calendar entry: session id due at virtual time t. A session
// id whose session has not been created yet is an arrival; otherwise it is
// a parked decision.
type event struct {
	t  float64
	id int
}

// eventHeap orders events by (time, id) — the id tiebreak pins batch
// assembly order, so runs are reproducible even with colliding timestamps.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].id < h[j].id
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// push and pop are heap.Push and heap.Pop without passing the event through
// an `any`, which allocates: heap.Fix only sees the *eventHeap. The (time,
// id) order is total (an id is in the calendar at most once), so the pop
// sequence is the same either way.
func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	heap.Fix(h, len(*h)-1)
}

func (h *eventHeap) pop() event {
	old := *h
	top, n := old[0], len(old)-1
	old[0] = old[n]
	*h = old[:n]
	if n > 0 {
		heap.Fix(h, 0)
	}
	return top
}

// session is one live viewer session: a goroutine running the real
// experiment.RunOneHooked, parked at every decision point.
type session struct {
	e       *engine
	id      int
	arrival float64

	resume chan struct{}

	// Session-goroutine state, read by the engine only after wg.Wait; rows
	// are what the parked decision staged (nil for an arm with no TTP).
	dec    *Staged
	rows   []core.PendingStep
	parkT  float64
	done   bool
	result experiment.SessionResult

	// Trace state: seq numbers this session's decisions; curTrace/curSpan
	// name the in-flight traced decision (0 = untraced) and are read by the
	// engine while the session is parked to attribute the shared flush.
	seq      uint64
	curTrace uint64
	curSpan  uint64
}

// engine coordinates the event loop.
type engine struct {
	trial *experiment.Config
	cfg   Config
	svc   *InferenceService

	sessions []*session
	results  []experiment.SessionResult
	ends     []float64
	events   eventHeap

	wg        sync.WaitGroup
	sem       chan struct{}
	decisions int64
	staged    int64
}

// Decide implements experiment.DecideHook: it runs the pre-flush half of
// the decision, parks the session at its global virtual time, and completes
// the decision after the engine's inference flush — returning exactly what
// alg.Choose(obs) would have.
func (s *session) Decide(alg abr.Algorithm, obs *abr.Observation, now float64) int {
	if s.dec == nil {
		s.dec = NewStaged(alg)
	}
	// Deterministic per-session sampling picks traced decisions; the trace
	// id is a pure function of (session id, decision seq), so tracing a run
	// twice traces the same decisions under the same ids.
	tr := metrics.Tracing()
	s.curTrace, s.curSpan = 0, 0
	var t0 int64
	if tr != nil && tr.Sampled(int64(s.id)) {
		s.curTrace = metrics.DecisionTraceID(int64(s.id), s.seq)
		s.curSpan = tr.NewSpanID()
		t0 = metrics.Now()
	}
	s.seq++
	s.rows = s.dec.Prepare(obs)
	s.park(s.arrival + now)
	q := s.dec.Finish(obs)
	s.dec.Record(decisionNS, s.curTrace, s.curSpan, s.dec.PrepareEnd())
	if s.curTrace != 0 {
		tr.Record(metrics.Span{Trace: s.curTrace, ID: s.curSpan, Name: "fleet_decision",
			Start: t0, Dur: metrics.SinceNS(t0), Attrs: []metrics.Attr{
				{Key: "session", Val: int64(s.id)},
				{Key: "seq", Val: int64(s.seq - 1)},
				{Key: "chunk", Val: int64(obs.ChunkIndex)},
			}})
	}
	return q
}

// park suspends the session until the engine resumes it, releasing its
// worker token while suspended.
func (s *session) park(t float64) {
	s.parkT = t
	<-s.e.sem // release worker token
	s.e.wg.Done()
	<-s.resume
	s.e.sem <- struct{}{} // reacquire before computing again
}

// run executes the whole session and records completion.
func (s *session) run() {
	s.e.sem <- struct{}{}
	res := s.e.trial.RunOneHooked(s.id, s)
	s.result = res
	s.done = true
	<-s.e.sem
	s.e.wg.Done()
}

// RunTrial executes one randomized trial on the fleet engine and returns
// the shard-folded accumulator — byte-identical to the session engine
// (experiment.Config.RunSharded) at the same trial config — together with
// the run's occupancy and batching statistics.
func RunTrial(trial *experiment.Config, cfg Config) (*experiment.TrialAcc, *Stats, error) {
	if len(trial.Schemes) == 0 {
		return nil, nil, fmt.Errorf("fleet: no schemes configured")
	}
	if trial.Sessions <= 0 {
		return nil, nil, fmt.Errorf("fleet: Sessions = %d, must be positive", trial.Sessions)
	}
	if cfg.ShardSize <= 0 {
		cfg.ShardSize = experiment.DefaultShardSize
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 0.25
	}
	if cfg.Arrivals == nil {
		cfg.Arrivals = PoissonArrivals{Rate: 1}
	}
	start := time.Now()

	n := trial.Sessions
	e := &engine{
		trial:    trial,
		cfg:      cfg,
		svc:      NewInferenceService(),
		sessions: make([]*session, n),
		results:  make([]experiment.SessionResult, n),
		ends:     make([]float64, n),
		sem:      make(chan struct{}, cfg.Workers),
	}
	arrivals := ArrivalTimes(cfg.Arrivals, trial.Seed, n)
	e.events = make(eventHeap, 0, n)
	for id, t := range arrivals {
		e.events = append(e.events, event{t, id})
	}
	heap.Init(&e.events)

	batch := make([]*session, 0, n)
	spawns := make([]*session, 0, n)
	for e.events.Len() > 0 {
		tickEnd := e.events[0].t + cfg.Tick
		batch = batch[:0]
		// Drain the tick window: spawn arrivals (running each to its
		// first decision, a window's arrivals in parallel), collect
		// parked sessions due in the window. Spawned sessions' first
		// parks usually land inside the window, so the outer loop
		// re-drains until nothing before tickEnd remains.
		for e.events.Len() > 0 && e.events[0].t < tickEnd {
			spawns = spawns[:0]
			for e.events.Len() > 0 && e.events[0].t < tickEnd {
				ev := e.events.pop()
				s := e.sessions[ev.id]
				if s == nil {
					s = &session{e: e, id: ev.id, arrival: arrivals[ev.id], resume: make(chan struct{})}
					e.sessions[ev.id] = s
					spawns = append(spawns, s)
					continue
				}
				batch = append(batch, s)
			}
			if len(spawns) == 0 {
				break
			}
			e.wg.Add(len(spawns))
			for _, s := range spawns {
				go s.run()
			}
			e.wg.Wait()
			for _, s := range spawns {
				e.afterYield(s)
			}
		}
		if len(batch) == 0 {
			continue
		}
		// One cross-session inference flush covers every staged step of
		// the tick, then the batch advances in parallel to the next
		// decision points.
		for _, s := range batch {
			e.svc.EnqueueTraced(s.rows, s.curTrace, s.curSpan)
		}
		e.svc.Flush()
		e.wg.Add(len(batch))
		for _, s := range batch {
			s.resume <- struct{}{}
		}
		e.wg.Wait()
		for _, s := range batch {
			e.afterYield(s)
		}
	}

	// Fold completed sessions through the canonical sharded aggregation
	// (shared with the session engine), so pooled stats are
	// byte-identical across engines by construction.
	total := experiment.FoldShards(n, cfg.ShardSize, experiment.AllPaths,
		func(id int) *experiment.SessionResult { return &e.results[id] })

	occ := telemetry.NewConcurrencySeries(arrivals, e.ends)
	st := &Stats{
		FleetDayStats: runner.FleetDayStats{
			PeakConcurrent: occ.Peak(),
			MeanConcurrent: occ.Mean(),
			Decisions:      e.decisions,
			Deferred:       e.staged,
			Flushes:        e.svc.flushes,
			Batches:        e.svc.batches,
			Rows:           e.svc.rows,
			MaxBatchRows:   e.svc.maxBatch,
		},
		Sessions:       n,
		Occupancy:      occ,
		ModelSnapshots: e.svc.snapshots,
		WallSeconds:    time.Since(start).Seconds(),
	}
	if len(occ.Points) > 0 {
		st.HorizonSeconds = occ.Points[len(occ.Points)-1].Time - occ.Points[0].Time
	}
	if st.Batches > 0 {
		st.MeanBatchRows = float64(st.Rows) / float64(st.Batches)
	}
	return total, st, nil
}

// DayEngine adapts the fleet engine to the daily loop's seam: each day's
// trial runs through RunTrial under the given arrival process and tick
// (zero values take RunTrial's defaults), the deterministic part of the
// run's Stats becomes the day's serving record, and the occupancy and wall
// throughput go to the progress log.
func DayEngine(arrivals ArrivalProcess, tick float64) runner.DayEngine {
	return func(_ int, trial *experiment.Config, _ *core.TTP, shardSize, workers int,
		notef func(string, ...any)) (*experiment.TrialAcc, *core.Dataset, *runner.FleetDayStats, error) {
		col := experiment.NewDatasetCollector()
		trial.Recorder = col
		acc, st, err := RunTrial(trial, Config{ShardSize: shardSize, Workers: workers, Tick: tick, Arrivals: arrivals})
		if err != nil {
			return nil, nil, nil, err
		}
		notef("  fleet: peak %d concurrent (mean %.1f) over %.0fs virtual, %d flushes, mean batch %.0f rows, %.0f sessions/sec wall",
			st.PeakConcurrent, st.MeanConcurrent, st.HorizonSeconds,
			st.Flushes, st.MeanBatchRows, st.SessionsPerSec())
		// Log-only registry read (a permitted wall-side consumer): the
		// cumulative decision-latency quantiles across fleet days so far.
		if metrics.Enabled() {
			if snap := decisionNS.Snapshot(); snap.Count > 0 {
				notef("  obs: decision latency p50 %v p99 %v p999 %v over %d decisions (cumulative)",
					time.Duration(snap.Quantile(0.5)), time.Duration(snap.Quantile(0.99)),
					time.Duration(snap.Quantile(0.999)), snap.Count)
			}
		}
		return acc, col.Dataset(), &st.FleetDayStats, nil
	}
}

// afterYield books one yielded session: completed sessions record their
// result and departure, parked ones re-enter the calendar at their decision
// time.
func (e *engine) afterYield(s *session) {
	e.decisions++ // every yield is one decision except the completion yield
	if s.done {
		e.decisions--
		e.results[s.id] = s.result
		e.ends[s.id] = s.arrival + s.result.Duration
		e.sessions[s.id] = nil // release the goroutine's session state
		return
	}
	if len(s.rows) > 0 {
		e.staged++
	}
	e.events.push(event{s.parkT, s.id})
}
