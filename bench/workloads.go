package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"puffer/internal/abr"
	"puffer/internal/core"
	"puffer/internal/experiment"
	"puffer/internal/obs"
	"puffer/internal/runner"
	"puffer/internal/scenario"
	"puffer/internal/serve"
)

// Frozen workload sizes. They were tuned once so that a repeat takes under
// two seconds and a whole run (sizing the seed, the set-ups, warm-up,
// twenty-two timed seconds, verify) stays near 32 s on two cores; changing
// them re-bases every number, so they change only with a new baseline.
const (
	dailySessions   = 160 // per day: 20 shards of 8, ten per worker
	serveSessions   = 128 // one served day
	retrainSessions = 60  // per telemetry day, three days
	shardSize       = 8
	shortDivisor    = 20 // -short runs at 1/20 scale (never below two shards)
)

func scaled(n int, short bool) int {
	if !short {
		return n
	}
	if n = n / shortDivisor; n < 2*shardSize {
		n = 2 * shardSize
	}
	return n
}

// baseSpec is the one spec every decision workload shares: stationary
// in-situ world, shards of 8, 14-day window, 2 epochs a night, no ablation
// companion, day 0 bootstrap plus one deploy day.
func baseSpec(seed int64, sessions int, engine string) scenario.Spec {
	s := scenario.New(
		scenario.Named("bench", "bench/ base spec"),
		scenario.Seed(seed), scenario.Days(2), scenario.Sessions(sessions),
		scenario.Shard(shardSize), scenario.Window(14), scenario.Epochs(2),
		scenario.Ablation(false), scenario.ArrivalRate(4), scenario.Tick(0.25),
	)
	s.Engine.Kind = engine
	if engine == "dist" {
		s.Engine.DistWorkers = procs
	}
	return s
}

// decisionSpec is the base spec on the stratum's pick for cfg.seed (on
// cfg.seed itself in the -short smoke, which measures nothing).
func decisionSpec(cfg config, sessions int, engine string, withBootstrap bool) scenario.Spec {
	spec := baseSpec(cfg.seed, scaled(sessions, cfg.short), engine)
	if !cfg.short {
		picked := pickSeed(cfg.seed, func(c int64) float64 { return specMiss(spec, c, withBootstrap) })
		spec.Seed = &picked
	}
	return spec
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "daily-session", "daily-fleet", "daily-dist":
		kind := strings.TrimPrefix(cfg.workload, "daily-")
		// The dist coordinator runs no decisions itself, so recording costs
		// it nothing, and dist_shard_retries_total is the only place a
		// reassigned shard shows.
		obs.SetEnabled(kind == "dist")
		return &daily{cfg: cfg, kind: kind, spec: decisionSpec(cfg, dailySessions, kind, true)}, nil
	case "serve-closed":
		// Recording on, no tracer: exactly how puffer-load runs, because
		// serve_client_rtt_ns is the load generator's stopwatch.
		obs.SetEnabled(true)
		return &serveClosed{cfg: cfg, spec: decisionSpec(cfg, serveSessions, "fleet", false)}, nil
	case "retrain-window":
		obs.SetEnabled(false)
		r := &retrain{cfg: cfg, seed: cfg.seed, sessions: scaled(retrainSessions, cfg.short)}
		if !cfg.short {
			var err error
			r.seed = pickSeed(cfg.seed, func(c int64) float64 {
				if e := r.collect(c); e != nil {
					err = e
					return math.Inf(1)
				}
				return windowMiss(r.chunks, retrainDays*r.sessions)
			})
			if err != nil {
				return nil, err
			}
		}
		return r, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
}

// ---- daily-session, daily-fleet, daily-dist --------------------------------

// daily resumes the daily loop from a day-0 checkpoint for one deploy day on
// one engine: the randomized Fugu-vs-BBA trial, its analysis, the nightly
// warm-start retrain and the checkpoint write.
type daily struct {
	cfg  config
	kind string
	spec scenario.Spec

	base  string    // checkpoint tree with day 0 done
	work  string    // this repeat's copy of it
	model *core.TTP // the model day 0's night trained, serving day 1
	last  *scenario.Outcome
}

func (d *daily) sizes() map[string]int {
	return map[string]int{"sessions_per_day": d.spec.Daily.Sessions, "deploy_days": 1,
		"shard_size": shardSize, "epochs": d.spec.Train.Epochs, "window_days": *d.spec.Daily.Window,
		"spec_seed": int(*d.spec.Seed)}
}

func (d *daily) opts(dir string) scenario.RunOptions {
	return scenario.RunOptions{Workers: procs, CheckpointDir: dir,
		DistCommand: []string{d.cfg.exe, distWorkerFlag}}
}

// setup runs day 0 (bootstrap arms and night-0 training) on the session
// engine into a checkpoint tree; a checkpoint resumes under any engine.
func (d *daily) setup() error {
	d.base = filepath.Join(d.cfg.dir, "day0")
	if err := os.RemoveAll(d.base); err != nil {
		return err
	}
	s := d.spec
	s.Daily.Days = 1
	s.Engine = scenario.EngineSpec{}
	out, err := scenario.Run(s, d.opts(d.base))
	if err != nil {
		return err
	}
	d.model = out.Result.TTP
	return nil
}

func (d *daily) prep() error {
	d.work = filepath.Join(d.cfg.dir, "work")
	if err := os.RemoveAll(d.work); err != nil {
		return err
	}
	return os.CopyFS(d.work, os.DirFS(d.base))
}

func (d *daily) repeat() (repeatOut, error) {
	return d.run(d.spec, procs)
}

// run resumes the checkpoint copy to the end of the deploy day.
func (d *daily) run(spec scenario.Spec, workers int) (repeatOut, error) {
	retries := obs.Default.Counter("dist_shard_retries_total").Value()
	opt := d.opts(d.work)
	opt.Workers = workers
	door := d.cfg.rec.door("scenario.Run")
	out, err := scenario.Run(spec, opt)
	d.cfg.rec.end(door)
	if err != nil {
		return repeatOut{}, err
	}
	d.last = out
	ro := repeatOut{
		digest:    statsDigest(1, out.Result.Days[1].Schemes),
		attempted: spec.Daily.Sessions,
	}
	if d.kind == "dist" {
		ro.failed = int(obs.Default.Counter("dist_shard_retries_total").Value() - retries)
		ro.attempted = experiment.NumShards(spec.Daily.Sessions, shardSize) + ro.failed
	}
	return ro, nil
}

// deployTrial is day 1's randomized trial exactly as the daily loop (and
// every dist worker) builds it.
func (d *daily) deployTrial() (experiment.Config, error) {
	cfg, err := scenario.Compile(d.spec)
	if err != nil {
		return experiment.Config{}, err
	}
	slot := &runner.ModelSlot{}
	slot.Store(d.model)
	return cfg.DayTrial(1, slot), nil
}

// verify folds the deploy day a second time, outside the program, through
// the canonical shard fold with a counting hook: its table is what every
// engine must have printed, and its count is the trial's decision constant.
func (d *daily) verify() (reference, error) {
	trial, err := d.deployTrial()
	if err != nil {
		return reference{}, err
	}
	var n armCount
	acc := foldDay(&trial, &n)
	st := acc.Analyze(runner.DayAnalysisSeed(*d.spec.Seed, 1))
	return reference{digest: statsDigest(1, st), sessions: trial.Sessions, decisions: n.all.Load()}, nil
}

func (d *daily) info([]sample) []summary { return nil }

func (d *daily) close() {}

// armCount is a hook that decides exactly as the algorithm would and counts
// the day's decisions, and those of the "Fugu" arm.
type armCount struct{ all, fugu atomic.Int64 }

func (c *armCount) Decide(alg abr.Algorithm, o *abr.Observation, _ float64) int {
	c.all.Add(1)
	if alg.Name() == "Fugu" {
		c.fugu.Add(1)
	}
	return alg.Choose(o)
}

// foldDay folds every shard of the trial with each session's decisions
// routed through hook.
func foldDay(trial *experiment.Config, hook experiment.DecideHook) *experiment.TrialAcc {
	return foldShards(trial, allShards(trial.Sessions), func(_, lo, hi int) *experiment.TrialAcc {
		return foldSessions(lo, hi, func(id int) experiment.SessionResult { return trial.RunOneHooked(id, hook) })
	})
}

func allShards(sessions int) []int {
	out := make([]int, experiment.NumShards(sessions, shardSize))
	for i := range out {
		out[i] = i
	}
	return out
}

// foldShards is the bench-side twin of the runner's sharded day: the named
// shards fold on procs goroutines through fold and merge in shard order.
func foldShards(trial *experiment.Config, shards []int, fold func(shard, lo, hi int) *experiment.TrialAcc) *experiment.TrialAcc {
	accs := make([]*experiment.TrialAcc, len(shards))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < procs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				lo, hi := experiment.ShardRange(trial.Sessions, shardSize, shards[i])
				accs[i] = fold(shards[i], lo, hi)
			}
		}()
	}
	for i := range shards {
		next <- i
	}
	close(next)
	wg.Wait()
	total := experiment.NewTrialAcc(experiment.AllPaths)
	for _, acc := range accs {
		total.Merge(acc)
	}
	return total
}

// foldSessions folds sessions [lo, hi) in id order, each produced by run.
func foldSessions(lo, hi int, run func(id int) experiment.SessionResult) *experiment.TrialAcc {
	acc := experiment.NewTrialAcc(experiment.AllPaths)
	for id := lo; id < hi; id++ {
		sess := run(id)
		acc.AddSession(&sess)
	}
	return acc
}

// ---- serve-closed ----------------------------------------------------------

// serveClosed serves one deploy day over loopback TCP: an in-process
// serve.Server kept up across repeats, and a closed-loop load generator
// whose procs connections each send their next decision only after the
// reply to the last.
type serveClosed struct {
	cfg  config
	spec scenario.Spec

	plan   *serve.Plan // warmed: the daemon's and the virtual twin's
	client *serve.Plan // unwarmed: the load generator's own
	srv    *serve.Server
	ln     net.Listener
	served chan error
}

func (s *serveClosed) sizes() map[string]int {
	return map[string]int{"sessions": s.spec.Daily.Sessions, "connections": procs, "shard_size": shardSize,
		"spec_seed": int(*s.spec.Seed)}
}

// setup warms the plan (day 0 and its night, through runner.Run) and brings
// the server up.
func (s *serveClosed) setup() error {
	s.close()
	var err error
	if s.plan, err = serve.NewPlan(s.spec, 1); err != nil {
		return err
	}
	if err = s.plan.Warm(procs, nil); err != nil {
		return err
	}
	if s.client, err = serve.NewPlan(s.spec, 1); err != nil {
		return err
	}
	if s.srv, err = serve.NewServer(serve.Config{Plan: s.plan}); err != nil {
		return err
	}
	if s.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return err
	}
	s.served = make(chan error, 1)
	go func(srv *serve.Server, ln net.Listener) { s.served <- srv.Serve(ln) }(s.srv, s.ln)
	return nil
}

func (s *serveClosed) prep() error { return nil }

func (s *serveClosed) repeat() (repeatOut, error) {
	door := s.cfg.rec.door("serve.RunLoad")
	res, err := serve.RunLoad(serve.LoadConfig{Addr: s.ln.Addr().String(), Plan: s.client, Concurrency: procs})
	s.cfg.rec.end(door)
	if err != nil {
		return repeatOut{}, err
	}
	return repeatOut{
		digest:    statsDigest(1, res.Stats),
		attempted: res.Sessions,
		failed:    res.Failed + int(res.ModelViolations),
		wall:      res.WallSeconds,
	}, nil
}

// verify runs the plan's deterministic virtual-time twin; a clean load run
// must have reproduced its table byte for byte.
func (s *serveClosed) verify() (reference, error) {
	st, fst, err := serve.RunVirtual(s.plan, procs)
	if err != nil {
		return reference{}, err
	}
	return reference{digest: statsDigest(1, st), sessions: s.plan.Sessions, decisions: fst.Decisions}, nil
}

func (s *serveClosed) info([]sample) []summary { return nil }

func (s *serveClosed) close() {
	if s.srv == nil {
		return
	}
	s.srv.Shutdown()
	// Shutdown closes only a listener Serve has already registered; closing
	// it here too covers a Serve goroutine that has not run yet.
	s.ln.Close()
	<-s.served
	s.srv = nil
}

// ---- retrain-window --------------------------------------------------------

// retrain is the nightly phase alone: core.Train with the study's defaults
// on a three-day telemetry window, cold-started from a fresh TTP.
type retrain struct {
	cfg      config
	seed     int64 // the stratum's pick for cfg.seed
	sessions int

	data   *core.Dataset
	ttp    *core.TTP
	chunks int64
	losses []string // one digest per repeat, warm-up included
	last   core.TrainResult
}

const retrainDays = 3

func (r *retrain) sizes() map[string]int {
	return map[string]int{"telemetry_days": retrainDays, "sessions_per_day": r.sessions,
		"epochs": core.DefaultTrainConfig().Epochs, "batch": core.DefaultTrainConfig().BatchSize,
		"window_seed": int(r.seed)}
}

// collect gathers the telemetry window in situ from the bootstrap arms.
func (r *retrain) collect(seed int64) error {
	r.data = &core.Dataset{}
	for day := 0; day < retrainDays; day++ {
		ds := runner.DaySeed(seed, day)
		d, err := experiment.CollectDataset(experiment.DefaultEnv(), runner.BootstrapSchemes(ds), r.sessions, ds, day)
		if err != nil {
			return err
		}
		r.data.Streams = append(r.data.Streams, d.Streams...)
	}
	r.chunks = int64(r.data.NumChunks())
	return nil
}

func (r *retrain) setup() error {
	if err := r.collect(r.seed); err != nil {
		return err
	}
	r.ttp = core.NewTTP(rand.New(rand.NewSource(r.seed)), core.DefaultHorizon, nil, core.DefaultFeatures(), core.KindTransTime)
	r.losses = nil
	return nil
}

func (r *retrain) prep() error { return nil }

func (r *retrain) repeat() (repeatOut, error) {
	door := r.cfg.rec.door("core.Train")
	tr, err := core.Train(r.ttp.Clone(), r.data, core.DefaultTrainConfig())
	r.cfg.rec.end(door)
	if err != nil {
		return repeatOut{}, err
	}
	r.last = tr
	d := digestOf(fmt.Sprintf("%x %v", tr.Loss, tr.Examples))
	r.losses = append(r.losses, d)
	return repeatOut{digest: d, attempted: retrainDays * r.sessions}, nil
}

// verify: training is deterministic, so every repeat (the warm-up first)
// must end on the same losses.
func (r *retrain) verify() (reference, error) {
	if len(r.losses) == 0 {
		return reference{}, fmt.Errorf("no repeat ran")
	}
	return reference{digest: r.losses[0], sessions: retrainDays * r.sessions, decisions: r.chunks}, nil
}

// info names the retrain readings the issue asked for; on this workload
// decisions_per_s and cpu_us_per_decision are the same measurements per
// recorded decision, and those carry the bounds.
func (r *retrain) info(samples []sample) []summary {
	var walls, cpuUS []float64
	for _, s := range samples {
		walls = append(walls, s.wall)
		cpuUS = append(cpuUS, s.cpu*1e6/float64(r.examplePasses()))
	}
	return []summary{summarize("retrain_s", "s", walls), summarize("train_cpu_us_per_example", "us", cpuUS)}
}

// examplePasses is the examples one core.Train visits: every step's
// examples, once per epoch.
func (r *retrain) examplePasses() int {
	passes := 0
	for _, n := range r.last.Examples {
		passes += n * core.DefaultTrainConfig().Epochs
	}
	return passes
}

func (r *retrain) close() {}
