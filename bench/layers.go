package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"puffer/internal/abr"
	"puffer/internal/core"
	"puffer/internal/dist"
	"puffer/internal/experiment"
	"puffer/internal/fleet"
	"puffer/internal/media"
	"puffer/internal/nn"
	"puffer/internal/obs"
	"puffer/internal/serve"
)

// layerPass is the traced pass's state: the bench's own spans, the
// program's tracer, the registry as it stood when tracing began, and the
// per-layer metrics collected so far.
type layerPass struct {
	cfg    config
	rec    *recorder
	root   int
	tracer *obs.Tracer
	wasOn  bool         // the workload's own recording setting
	snap0  obs.Snapshot // registry when the traced repeats began
	refRun sample       // the untraced reference repeat
	traced []sample
	m      map[string]float64
	// problems are failed checks of the pass itself (the budget tiling);
	// they do not make the program's outputs wrong.
	problems []string
}

// newLayerPass turns recording and tracing on (every session sampled) and
// opens the root span. The ring holds the most recent 16k program spans,
// which keeps the span file a few MB.
func newLayerPass(cfg config, refRun sample) *layerPass {
	lp := &layerPass{cfg: cfg, rec: cfg.rec, refRun: refRun, wasOn: obs.Enabled(), m: map[string]float64{}}
	obs.SetEnabled(true)
	lp.tracer = obs.NewTracer(1, 1<<14)
	obs.SetTracer(lp.tracer)
	lp.snap0 = obs.Default.Snapshot()
	lp.root = lp.rec.begin("run", -1, 0)
	return lp
}

// untraced runs fn with tracing off and recording as the workload itself
// set it, for reference measurements taken after the traced repeats.
func (lp *layerPass) untraced(fn func() error) error {
	obs.SetTracer(nil)
	obs.SetEnabled(lp.wasOn)
	defer func() {
		obs.SetEnabled(true)
		obs.SetTracer(lp.tracer)
	}()
	return fn()
}

// hist returns what the named histogram recorded since tracing began.
func (lp *layerPass) hist(name string) obs.HistSnapshot {
	old := obs.HistSnapshot{}
	for _, h := range lp.snap0.Histograms {
		if h.Name == name {
			old = h
		}
	}
	return obs.Default.Histogram(name).Snapshot().Sub(old)
}

// counter returns the named counter's increase since tracing began.
func (lp *layerPass) counter(name string) float64 {
	var old int64
	for _, c := range lp.snap0.Counters {
		if c.Name == name {
			old = c.Value
		}
	}
	return float64(obs.Default.Counter(name).Value() - old)
}

// finish closes the root span, derives the tracing overhead from the two
// kinds of repeat, fills every per-layer name (0 where this workload does
// not reach the layer), and writes the span file.
func (lp *layerPass) finish(res *result) error {
	lp.rec.end(lp.root)
	var tracedCPU float64
	for _, s := range lp.traced {
		tracedCPU += s.cpu / float64(len(lp.traced))
	}
	if lp.refRun.cpu > 0 {
		lp.m["obs.trace_overhead_share."+lp.cfg.workload] = tracedCPU/lp.refRun.cpu - 1
	}
	res.Layers = map[string]float64{}
	for _, d := range perLayer {
		res.Layers[d.Name] = lp.m[d.Name]
	}
	res.Budget = budget(lp.rec.spans)
	res.Problems = append(res.Problems, lp.problems...)

	if err := os.MkdirAll(lp.cfg.out, 0o755); err != nil {
		return err
	}
	res.TraceFile = filepath.Join(lp.cfg.out, "trace-"+lp.cfg.workload+".json")
	f, err := os.Create(res.TraceFile)
	if err != nil {
		return err
	}
	spans := append(obsSpans(lp.rec.spans), lp.tracer.Snapshot()...)
	if err := obs.WriteChromeTrace(f, "bench "+lp.cfg.workload, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perOp times fn, which performs ops operations per call, and returns the
// median nanoseconds per operation over five samples of at least 30 ms
// (1 ms in the -short smoke).
func (lp *layerPass) perOp(ops int, fn func()) float64 {
	window := 30 * time.Millisecond
	if lp.cfg.short {
		window = time.Millisecond
	}
	fn()
	var samples []float64
	for i := 0; i < 5; i++ {
		calls := 0
		t0 := time.Now()
		for time.Since(t0) < window {
			fn()
			calls++
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(calls*ops))
	}
	return summarize("", "", samples).Median
}

// ---- the bench-side traced fold --------------------------------------------

// timedPred wraps the session's TTP predictor so that every distribution
// fill is a predict span under the decision that asked for it. It is
// swapped into the algorithm the program's own scheme factory built, the
// way fleet.Deferify swaps in its staging predictor.
type timedPred struct {
	P *core.Predictor
	h *tracingHook
}

func (t *timedPred) PredictDist(o *abr.Observation, step int, size float64, dist []float64) {
	t.P.PredictDist(o, step, size, dist)
}

func (t *timedPred) PredictDistBatch(o *abr.Observation, step int, sizes, dists []float64) {
	id := t.h.rec.begin("predict", t.h.decision, 0)
	t.P.PredictDistBatch(o, step, sizes, dists)
	t.h.rec.end(id)
}

// instrument swaps a timedPred into alg's MPC (nil for arms with no TTP).
func instrument(alg abr.Algorithm) *timedPred {
	for {
		switch a := alg.(type) {
		case *abr.Explorer:
			alg = a.Base
		case *abr.MPC:
			if p, ok := a.Pred.(*core.Predictor); ok {
				tp := &timedPred{P: p}
				a.Pred = tp
				return tp
			}
			return nil
		default:
			return nil
		}
	}
}

// tracingHook times every decision of one session and copies out some of
// its mid-stream observations for the layer replays.
type tracingHook struct {
	rec      *recorder
	session  int
	decision int
	linked   bool
	fugu     bool
	n        int
	cap      *capture
}

func (h *tracingHook) Decide(alg abr.Algorithm, o *abr.Observation, _ float64) int {
	if !h.linked {
		h.linked = true
		if tp := instrument(alg); tp != nil {
			tp.h, h.fugu = h, true
		}
	}
	name := "decision"
	if h.fugu {
		name = "decision.fugu"
	}
	h.decision = h.rec.begin(name, h.session, 0)
	q := alg.Choose(o)
	h.rec.end(h.decision)
	if h.n++; h.n%4 == 0 {
		h.cap.add(o)
	}
	return q
}

// capture holds up to captureMax deep-copied mid-stream observations: full
// history, full lookahead — real inputs for the layer replays.
type capture struct {
	mu  sync.Mutex
	obs []abr.Observation
}

const captureMax = 512

func (c *capture) add(o *abr.Observation) {
	if len(o.History) < abr.HistoryLen || len(o.Horizon) < core.DefaultHorizon {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.obs) >= captureMax {
		return
	}
	cp := *o
	cp.History = append([]abr.ChunkRecord(nil), o.History...)
	cp.Horizon = make([]media.Chunk, len(o.Horizon))
	for i, ch := range o.Horizon {
		cp.Horizon[i] = ch
		cp.Horizon[i].Versions = append([]media.Encoding(nil), ch.Versions...)
	}
	c.obs = append(c.obs, cp)
}

// foldStats is what the traced fold measured, from span self times.
type foldStats struct {
	decisions, fuguDecisions             int
	sessionNS, simNS, planNS, fuguPlanNS float64
	predictNS                            float64
	cpuS                                 float64
	obs                                  []abr.Observation
	acc                                  *experiment.TrialAcc
}

// tracedFold folds the named shards of the deploy day on the bench side,
// as shard > session (RunOneHooked) > decision > predict spans. The
// sessions, algorithms and seeds are the program's own (trial comes from
// runner.Config.DayTrial); only the hook and the timed predictor are added.
func tracedFold(lp *layerPass, trial *experiment.Config, shards []int) *foldStats {
	rec := lp.rec
	first := len(rec.spans)
	foldSpan := rec.begin("fold", lp.root, 0)
	cap := &capture{}
	c0 := cpuSeconds()
	acc := foldShards(trial, shards, func(shard, lo, hi int) *experiment.TrialAcc {
		shardSpan := rec.begin("shard", foldSpan, 0)
		defer rec.end(shardSpan)
		return foldSessions(lo, hi, func(id int) experiment.SessionResult {
			h := &tracingHook{rec: rec, cap: cap}
			h.session = rec.begin("session", shardSpan, 0)
			defer rec.end(h.session)
			return trial.RunOneHooked(id, h)
		})
	})
	fs := &foldStats{cpuS: cpuSeconds() - c0, obs: cap.obs, acc: acc}
	rec.end(foldSpan)

	self := selfTimes(rec.spans)
	for i := first; i < len(rec.spans); i++ {
		s := rec.spans[i]
		dur, own := float64(s.End-s.Start), float64(self[i])
		switch s.Name {
		case "session":
			fs.sessionNS += dur
			fs.simNS += own
		case "decision", "decision.fugu":
			fs.decisions++
			fs.planNS += own
			if s.Name == "decision.fugu" {
				fs.fuguDecisions++
				fs.fuguPlanNS += own
			}
		case "predict":
			fs.predictNS += dur
		}
	}
	return fs
}

// rungSizes fills dst with the encoded size of every rung of a chunk: the
// candidate sizes one distribution fill covers.
func rungSizes(dst []float64, c media.Chunk) []float64 {
	for q, v := range c.Versions {
		dst[q] = v.Size
	}
	return dst
}

// decisionLayers measures the layers under one ABR decision for a workload
// whose deploy day is trial and whose served model is model: the traced
// fold (experiment, abr, core shares) and replays of its captured
// observations through nn, core and abr in isolation.
func decisionLayers(lp *layerPass, trial *experiment.Config, model *core.TTP) *foldStats {
	shards := allShards(trial.Sessions)
	if len(shards) > 4 {
		shards = shards[:4]
	}
	fs := tracedFold(lp, trial, shards)
	if lp.cfg.short && len(fs.obs) > 32 {
		fs.obs = fs.obs[:32] // the smoke replays a handful
	}
	m := lp.m
	if fs.decisions == 0 || len(fs.obs) == 0 {
		return fs
	}
	n := float64(fs.decisions)
	m["experiment.sim_us_per_decision"] = fs.simNS / n / 1e3
	m["abr.plan_share"] = fs.planNS / fs.sessionNS
	if fs.fuguDecisions > 0 {
		m["abr.plan_us"] = fs.fuguPlanNS / float64(fs.fuguDecisions) / 1e3
	}
	// Two fold goroutines on two procs: the session spans' wall is the
	// fold's CPU, less what the collector and the scheduler took.
	residual := (fs.cpuS*1e9 - fs.sessionNS) / (fs.cpuS * 1e9)
	m["experiment.budget_residual_share"] = residual
	if residual > 0.10 || residual < -0.10 {
		lp.problems = append(lp.problems, fmt.Sprintf(
			"budget: session spans add up to %.0f ms but the fold used %.0f ms of CPU (residual %.1f%%, limit 10%%)",
			fs.sessionNS/1e6, fs.cpuS*1e3, 100*residual))
	}
	t0 := time.Now()
	fs.acc.Analyze(trial.Seed)
	m["experiment.analyze_s"] = time.Since(t0).Seconds()

	// nn: the kernels alone, on the feature rows of the captured decisions.
	net := model.Nets[0]
	dim := model.Cfg.Dim()
	rungs := len(fs.obs[0].Horizon[0].Versions)
	sizes := make([]float64, rungs)
	feats := make([]float64, len(fs.obs)*rungs*dim)
	for i := range fs.obs {
		o := &fs.obs[i]
		model.Cfg.AssembleBatch(feats[i*rungs*dim:(i+1)*rungs*dim], o.History, o.TCP, rungSizes(sizes, o.Horizon[0]))
	}
	rows := len(feats) / dim
	out := make([]float64, rows*abr.NumBins)
	kernel := func(batch int, predict func(ws *nn.BatchWorkspace, xs []float64, rows int, dst []float64) []float64, ws *nn.BatchWorkspace) float64 {
		if batch > rows {
			batch = rows
		}
		calls := rows / batch
		return lp.perOp(calls*batch, func() {
			for c := 0; c < calls; c++ {
				predict(ws, feats[c*batch*dim:(c+1)*batch*dim], batch, out[c*batch*abr.NumBins:(c+1)*batch*abr.NumBins])
			}
		})
	}
	packed := net.NewPacked()
	m["nn.portable_ns_per_row.b10"] = kernel(10, net.PredictDistBatch, net.NewBatchWorkspace(10))
	m["nn.packed_ns_per_row.b10"] = kernel(10, packed.PredictDistBatch, packed.NewBatchWorkspace(10))
	m["nn.packed_ns_per_row.b1280"] = kernel(1280, packed.PredictDistBatch, packed.NewBatchWorkspace(1280))
	// Computed from the layer sizes, not measured: one multiply and one add
	// per weight, eight bytes per parameter.
	for l := 0; l+1 < len(net.Sizes); l++ {
		m["nn.flop_per_row"] += 2 * float64(net.Sizes[l]*net.Sizes[l+1])
	}
	m["nn.weight_bytes"] = 8 * float64(net.NumParams())
	if nn.Accelerated() {
		m["nn.accelerated"] = 1
	}

	// core: one decision's five distribution fills, and their parts.
	h := model.Horizon()
	dists := make([]float64, rungs*abr.NumBins)
	stepSizes := func(o *abr.Observation, step int) []float64 { return rungSizes(sizes, o.Horizon[step]) }
	pred := core.NewPredictor(model, core.ModeProbabilistic)
	predictNS := lp.perOp(len(fs.obs), func() {
		for i := range fs.obs {
			for step := 0; step < h; step++ {
				pred.PredictDistBatch(&fs.obs[i], step, stepSizes(&fs.obs[i], step), dists)
			}
		}
	})
	row := make([]float64, rungs*dim)
	assembleNS := lp.perOp(len(fs.obs), func() {
		for i := range fs.obs {
			for step := 0; step < h; step++ {
				model.Cfg.AssembleBatch(row, fs.obs[i].History, fs.obs[i].TCP, stepSizes(&fs.obs[i], step))
			}
		}
	})
	dp := core.NewDeferredPredictor(core.NewPredictor(model, core.ModeProbabilistic))
	stageNS := lp.perOp(len(fs.obs), func() {
		for i := range fs.obs {
			for step := 0; step < h; step++ {
				dp.PredictDistBatch(&fs.obs[i], step, stepSizes(&fs.obs[i], step), dists)
			}
			dp.Clear()
		}
	})
	m["core.predict_us_per_decision"] = predictNS / 1e3
	m["core.assemble_us_per_decision"] = assembleNS / 1e3
	m["core.stage_us_per_decision"] = stageNS / 1e3
	m["core.nn_share"] = fs.predictNS / fs.sessionNS * (1 - assembleNS/predictNS)

	// abr: whole decisions by scheme; MPC-HM plans with no network, so it
	// is the planner's floor.
	choose := func(alg abr.Algorithm) float64 {
		return lp.perOp(len(fs.obs), func() {
			for i := range fs.obs {
				alg.Choose(&fs.obs[i])
			}
		}) / 1e3
	}
	m["abr.choose_us.fugu"] = choose(core.NewFugu(model))
	m["abr.choose_us.hm"] = choose(abr.NewMPCHM())
	m["abr.choose_us.bba"] = choose(abr.NewBBA())
	return fs
}

// runnerLayers reads the daily loop's own day, trial and retrain spans of
// the traced repeats. What the day span holds beyond the trial and the
// retrain is analysis plus the checkpoint write; the analysis is measured
// separately, and the remainder is the checkpoint.
func runnerLayers(lp *layerPass) {
	var day, trial, retrainNS, days float64
	for _, s := range lp.tracer.Snapshot() {
		switch s.Name {
		case "day":
			day += float64(s.Dur)
			days++
		case "trial":
			trial += float64(s.Dur)
		case "retrain":
			retrainNS += float64(s.Dur)
		}
	}
	if days == 0 || day == 0 {
		return
	}
	m := lp.m
	m["runner.day_wall_s"] = day / days / 1e9
	m["runner.trial_wall_s"] = trial / days / 1e9
	m["runner.retrain_wall_s"] = retrainNS / days / 1e9
	m["runner.overhead_share"] = (day - trial - retrainNS) / day
	if ck := (day-trial-retrainNS)/days/1e9 - m["experiment.analyze_s"]; ck > 0 {
		m["runner.checkpoint_s"] = ck
	}
}

func (d *daily) layers(lp *layerPass) error {
	trial, err := d.deployTrial()
	if err != nil {
		return err
	}
	m := lp.m
	fs := decisionLayers(lp, &trial, d.model)
	runnerLayers(lp)

	switch d.kind {
	case "session", "fleet":
		// One more repeat on a single worker: how much of a second worker's
		// time turns into throughput.
		var one sample
		err := lp.untraced(func() (err error) {
			if err = d.prep(); err == nil {
				runtime.GC()
				c0, t0 := cpuSeconds(), time.Now()
				_, err = d.run(d.spec, 1)
				one = sample{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0}
			}
			return err
		})
		if err != nil {
			return err
		}
		m["runner.scaling_efficiency."+d.kind] = one.wall / (procs * lp.refRun.wall)
	}

	switch d.kind {
	case "fleet":
		fst := d.last.Result.Days[1].Fleet
		if fst == nil {
			return fmt.Errorf("fleet day recorded no serving stats")
		}
		m["fleet.flushes"] = float64(fst.Flushes)
		m["fleet.rows"] = float64(fst.Rows)
		m["fleet.mean_batch_rows"] = fst.MeanBatchRows
		m["fleet.max_batch_rows"] = float64(fst.MaxBatchRows)
		m["fleet.deferred_share"] = float64(fst.Deferred) / float64(fst.Decisions)
		m["fleet.peak_concurrent"] = float64(fst.PeakConcurrent)
		dec := lp.hist(fleet.MetricDecisionNS)
		m["fleet.decision_ns_p50"] = histQuantile(dec, 0.5)
		m["fleet.decision_ns_p99"] = histQuantile(dec, 0.99)
		m["fleet.flush_ns_mean"] = lp.hist("fleet_flush_ns").Mean()
		m["fleet.flush_us_per_row.s16"] = flushReplay(lp, d.model, fs.obs, 16)
		m["fleet.flush_us_per_row.s128"] = flushReplay(lp, d.model, fs.obs, 128)
		// What the fleet engine adds per decision beyond the layers it
		// calls: its scheduler, parking and staging. The trial's CPU is its
		// wall on procs busy workers (the day's retrain is not the engine's).
		n := float64(fs.decisions)
		inference := m["fleet.flush_us_per_row.s16"] * float64(fst.Rows) / float64(fst.Decisions)
		m["fleet.overhead_us_per_decision"] = m["runner.trial_wall_s"]*procs*1e6/float64(fst.Decisions) -
			fs.planNS/n/1e3 - fs.simNS/n/1e3 - inference
	case "dist":
		if err := d.distLayers(lp, &trial); err != nil {
			return err
		}
	}
	return nil
}

// flushReplay stages one decision's rows for each of n sessions and times
// InferenceService.Enqueue + Flush over them, per feature row.
func flushReplay(lp *layerPass, model *core.TTP, observations []abr.Observation, n int) float64 {
	svc := fleet.NewInferenceService()
	var staged []*core.DeferredPredictor
	rows := 0
	for i := 0; i < n; i++ {
		o := &observations[i%len(observations)]
		dp := core.NewDeferredPredictor(core.NewPredictor(model, core.ModeProbabilistic))
		for step := 0; step < model.Horizon(); step++ {
			sizes := rungSizes(make([]float64, len(o.Horizon[step].Versions)), o.Horizon[step])
			dp.PredictDistBatch(o, step, sizes, make([]float64, len(sizes)*abr.NumBins))
			rows += len(sizes)
		}
		staged = append(staged, dp)
	}
	return lp.perOp(rows, func() {
		for _, dp := range staged {
			svc.Enqueue(dp.Pending())
		}
		svc.Flush()
	}) / 1e3
}

// distLayers measures what only the dist engine pays: the shard blob codec,
// bringing a worker pool up, and the CPU it costs beyond the session engine
// on the same day.
func (d *daily) distLayers(lp *layerPass, trial *experiment.Config) error {
	m := lp.m
	t := *trial
	col := experiment.NewDatasetCollector()
	t.Recorder = col
	lo, hi := experiment.ShardRange(t.Sessions, shardSize, 0)
	acc := t.FoldShard(lo, hi, experiment.AllPaths)
	data := col.Dataset()
	blob, err := dist.EncodeShard(acc, data)
	if err != nil {
		return err
	}
	m["dist.blob_bytes_per_shard"] = float64(len(blob))
	m["dist.encode_shard_us"] = lp.perOp(1, func() { dist.EncodeShard(acc, data) }) / 1e3
	m["dist.decode_shard_us"] = lp.perOp(1, func() { dist.DecodeShard(blob) }) / 1e3
	m["dist.shard_retries"] = lp.counter("dist_shard_retries_total")

	// A pool's start-up: launch the workers, handshake, and one bootstrap
	// shard each (workers launch lazily, on the first day they are given).
	t0 := time.Now()
	pool, err := dist.NewPool(dist.PoolConfig{Workers: procs,
		Command: []string{d.cfg.exe, distWorkerFlag}, Spec: d.spec.CanonicalJSON()})
	if err != nil {
		return err
	}
	_, _, err = pool.RunDay(0, nil, procs*shardSize, shardSize)
	pool.Close()
	if err != nil {
		return err
	}
	m["dist.pool_start_s"] = time.Since(t0).Seconds()

	var sess sample
	err = lp.untraced(func() (err error) {
		if err = d.prep(); err == nil {
			runtime.GC()
			c0 := cpuSeconds()
			spec := d.spec
			spec.Engine.Kind = "session"
			_, err = d.run(spec, procs)
			sess = sample{cpu: cpuSeconds() - c0}
		}
		return err
	})
	if err != nil {
		return err
	}
	m["dist.overhead_share"] = lp.refRun.cpu/sess.cpu - 1
	return nil
}

func (s *serveClosed) layers(lp *layerPass) error {
	trial, err := s.plan.Trial()
	if err != nil {
		return err
	}
	decisionLayers(lp, trial, s.plan.Slot.Load())
	m := lp.m
	dec, req, rtt := lp.hist(serve.MetricDecisionNS), lp.hist(serve.MetricRequestNS), lp.hist("serve_client_rtt_ns")
	m["serve.decision_ns_p50"] = histQuantile(dec, 0.5)
	m["serve.decision_ns_p99"] = histQuantile(dec, 0.99)
	m["serve.request_ns_p50"] = histQuantile(req, 0.5)
	m["serve.batch_sessions_mean"] = lp.hist(serve.MetricBatchSessions).Mean()
	m["serve.rtt_p50_us"] = histQuantile(rtt, 0.5) / 1e3
	m["serve.rtt_p99_us"] = histQuantile(rtt, 0.99) / 1e3
	m["serve.rtt_p999_us"] = histQuantile(rtt, 0.999) / 1e3
	// The fast mode of both histograms (a BBA decision, batcher idle): what
	// is left of the client's round trip once the server's part is taken out.
	m["serve.wire_us"] = (histQuantile(rtt, 0.25) - histQuantile(req, 0.25)) / 1e3
	m["serve.queue_full"] = lp.counter(serve.MetricQueueFull)
	m["serve.proto_errors"] = lp.counter("serve_proto_errors_total")
	m["serve.sessions_aborted"] = lp.counter("serve_sessions_aborted_total")
	return nil
}

func (r *retrain) layers(lp *layerPass) error {
	m := lp.m
	cfg := core.DefaultTrainConfig()
	t0 := time.Now()
	var xs [][]float64
	var labels []int
	var weights []float64
	for step := range r.ttp.Nets {
		x, l, w := r.data.Examples(r.ttp, step, cfg)
		if step == 0 {
			xs, labels, weights = x, l, w
		}
	}
	m["core.examples_build_s"] = time.Since(t0).Seconds()

	var walls []float64
	for _, s := range lp.traced {
		walls = append(walls, s.wall)
	}
	m["core.train_s"] = summarize("", "", walls).Median
	m["core.train_cpu_us_per_example"] = lp.refRun.cpu * 1e6 / float64(r.examplePasses())

	// nn: one Adam minibatch step of 64 on the window's own examples.
	batch := cfg.BatchSize
	if batch > len(xs) {
		batch = len(xs)
	}
	trainer := nn.NewTrainer(r.ttp.Nets[0].Clone(), &nn.Adam{LR: cfg.LR})
	at := 0
	m["nn.train_us_per_example"] = lp.perOp(batch, func() {
		if at+batch > len(xs) {
			at = 0
		}
		trainer.TrainClassBatch(xs[at:at+batch], labels[at:at+batch], weights[at:at+batch])
		at += batch
	}) / 1e3
	return nil
}
