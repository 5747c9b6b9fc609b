package dist

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"time"

	"puffer/internal/core"
	"puffer/internal/experiment"
	"puffer/internal/obs"
	"puffer/internal/wire"
)

// PoolConfig configures a coordinator-side worker pool.
type PoolConfig struct {
	// Workers is the number of worker processes (0 means GOMAXPROCS).
	// A day never launches more workers than it has shards.
	Workers int
	// Command launches one worker process (argv; Command[0] is the
	// binary). Workers speak the protocol on stdin/stdout; stderr is
	// inherited.
	Command []string
	// Spec is the canonical spec JSON broadcast in the hello frame.
	Spec []byte
	// ShardTimeout bounds one shard assignment (and the claim before
	// it); a worker that exceeds it is presumed hung, killed, and its
	// shard reassigned. 0 disables the deadline.
	ShardTimeout time.Duration
	// MaxRestarts bounds worker replacements over the pool's lifetime
	// (a crash-looping fleet must abort, not spin). 0 means 2*Workers+2.
	MaxRestarts int
	// ExtraEnv entries are appended to each worker's environment.
	ExtraEnv []string
	// Logf, if set, receives coordinator progress lines.
	Logf func(format string, args ...any)
	// Events, if set, receives worker lifecycle events.
	Events *obs.EventLog
}

// Pool drives a fleet of local subprocess workers through days of shard
// execution. Workers persist across days: each RunDay broadcasts the day
// frame then schedules shards over the same processes. Not safe for
// concurrent RunDay calls — the daily loop is sequential by design.
type Pool struct {
	cfg      PoolConfig
	slots    []*workerProc // slot i is driven only by goroutine i during a day
	restarts int           // replacements consumed from the budget
	live     int           // live worker count (mirrors the dist_workers_live gauge)
	muR      sync.Mutex    // guards restarts and live
	day      int           // current broadcast day context
	model    []byte
	closed   bool
}

// workerProc is one live worker process and its reader goroutine.
type workerProc struct {
	slot   int
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	bw     *bufio.Writer
	frames chan frameIn // worker -> coordinator frames
}

// frameIn is one frame (or terminal read error) from a worker.
type frameIn struct {
	typ     byte
	payload []byte
	err     error
}

// fatalError marks failures that reassignment cannot fix (version or blob
// shape mismatches, worker-reported spec errors): the run must abort
// loudly instead of burning the restart budget on a deterministic failure.
type fatalError struct{ err error }

func (e *fatalError) Error() string { return e.err.Error() }
func (e *fatalError) Unwrap() error { return e.err }

// NewPool validates the config and returns a pool. Worker processes are
// launched lazily on the first RunDay, so constructing a pool is free.
func NewPool(cfg PoolConfig) (*Pool, error) {
	if len(cfg.Command) == 0 {
		return nil, fmt.Errorf("dist: pool needs a worker command")
	}
	if len(cfg.Spec) == 0 {
		return nil, fmt.Errorf("dist: pool needs canonical spec bytes")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxRestarts <= 0 {
		cfg.MaxRestarts = 2*cfg.Workers + 2
	}
	return &Pool{cfg: cfg, slots: make([]*workerProc, cfg.Workers)}, nil
}

// logf forwards to the configured logger, if any.
func (p *Pool) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// RunDay executes one day's trial across the pool: broadcast (day, model)
// to every worker, schedule the day's shards over them (reassigning on
// death or deadline), and merge results in shard order. The returned
// accumulator and dataset are byte-identical to the session engine's
// RunSharded + DatasetCollector at the same seeds.
func (p *Pool) RunDay(day int, model *core.TTP, sessions, shardSize int) (*experiment.TrialAcc, *core.Dataset, error) {
	if p.closed {
		return nil, nil, fmt.Errorf("dist: pool is closed")
	}
	if sessions <= 0 || shardSize <= 0 {
		return nil, nil, fmt.Errorf("dist: RunDay needs positive sessions (%d) and shard size (%d)", sessions, shardSize)
	}
	var modelBytes []byte
	if model != nil {
		var buf bytes.Buffer
		if err := model.Save(&buf); err != nil {
			return nil, nil, fmt.Errorf("dist: encoding day %d model: %w", day, err)
		}
		modelBytes = buf.Bytes()
	}
	p.day, p.model = day, modelBytes

	nShards := experiment.NumShards(sessions, shardSize)
	n := len(p.slots)
	if n > nShards {
		n = nShards
	}
	// Bring up (or refresh) the workers this day needs and broadcast the
	// day context. Failures here go through the same replace budget as
	// mid-day deaths.
	for i := 0; i < n; i++ {
		if p.slots[i] == nil {
			w, err := p.startWorker(i)
			if err != nil {
				return nil, nil, err
			}
			p.slots[i] = w
		}
		if err := sendFrame(p.slots[i].bw, frameDay, dayMsg{Day: day, Model: modelBytes}); err != nil {
			if rerr := p.replace(i, fmt.Errorf("broadcasting day %d: %w", day, err)); rerr != nil {
				return nil, nil, rerr
			}
		}
	}

	run := newDayRun(nShards)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			p.drive(slot, run, day, sessions, shardSize)
		}(i)
	}
	wg.Wait()
	if err := run.Err(); err != nil {
		return nil, nil, err
	}

	// The canonical aggregation: merge per-shard results in shard order.
	total := experiment.NewTrialAcc(experiment.AllPaths)
	data := &core.Dataset{}
	for s := 0; s < nShards; s++ {
		out := run.results[s]
		total.Merge(out.acc)
		data.Streams = append(data.Streams, out.data.Streams...)
	}
	return total, data, nil
}

// drive is one worker slot's scheduling loop for a day: take a shard,
// run it on the slot's worker, and on failure reassign the shard and
// replace the worker (within the restart budget).
func (p *Pool) drive(slot int, run *dayRun, day, sessions, shardSize int) {
	for {
		s, ok := run.take()
		if !ok {
			return
		}
		att := run.attempt(s)
		t0 := obs.Now()
		out, err := p.runShard(slot, assignMsg{Day: day, Shard: s, Attempt: att}, sessions, shardSize)
		if err == nil {
			shardWallNS.Observe(obs.SinceNS(t0))
			shardsDone.Inc()
			run.complete(s, out)
			continue
		}
		var fatal *fatalError
		if errors.As(err, &fatal) {
			run.abort(fatal.err)
			return
		}
		shardRetries.Inc()
		p.cfg.Events.Emit("dist_shard_reassigned", map[string]any{
			"day": day, "shard": s, "attempt": att, "worker": slot, "cause": err.Error(),
		})
		p.logf("dist: day %d shard %d attempt %d on worker %d failed: %v — reassigning", day, s, att, slot, err)
		run.requeue(s)
		if rerr := p.replace(slot, err); rerr != nil {
			run.abort(rerr)
			return
		}
	}
}

// runShard drives one assignment through slot's worker: consume its
// pending claim, assign, await the result, decode. Transport failures and
// deadline overruns return retryable errors (the caller reassigns);
// semantic mismatches return *fatalError.
func (p *Pool) runShard(slot int, a assignMsg, sessions, shardSize int) (*shardOut, error) {
	w := p.slots[slot]
	f, err := p.await(w, "claim")
	if err != nil {
		return nil, err
	}
	if f.typ != frameClaim {
		return nil, p.workerFrameError(w, f, frameClaim)
	}
	if err := sendFrame(w.bw, frameAssign, a); err != nil {
		return nil, fmt.Errorf("worker %d: sending assign: %w", slot, err)
	}
	f, err = p.await(w, fmt.Sprintf("day %d shard %d result", a.Day, a.Shard))
	if err != nil {
		return nil, err
	}
	if f.typ != frameResult {
		return nil, p.workerFrameError(w, f, frameResult)
	}
	var res resultMsg
	if err := decodePayload(f.typ, f.payload, &res); err != nil {
		return nil, err
	}
	if res.Day != a.Day || res.Shard != a.Shard || res.Attempt != a.Attempt {
		return nil, &fatalError{fmt.Errorf("dist: worker %d returned day %d shard %d attempt %d for assignment day %d shard %d attempt %d",
			slot, res.Day, res.Shard, res.Attempt, a.Day, a.Shard, a.Attempt)}
	}
	acc, data, err := DecodeShard(res.Blob)
	if err != nil {
		return nil, &fatalError{err}
	}
	return &shardOut{acc: acc, data: data}, nil
}

// workerFrameError turns an unexpected frame into an error: error frames
// carry the worker's own diagnosis (fatal — retrying re-runs the same
// deterministic failure), anything else is a protocol bug (also fatal).
func (p *Pool) workerFrameError(w *workerProc, f frameIn, want byte) error {
	if f.typ == frameError {
		var e errorMsg
		if derr := decodePayload(f.typ, f.payload, &e); derr == nil {
			return &fatalError{fmt.Errorf("dist: worker %d: %s", w.slot, e.Msg)}
		}
	}
	return &fatalError{fmt.Errorf("dist: worker %d sent %s frame, want %s", w.slot, frameName(f.typ), frameName(want))}
}

// await reads the next frame from w, bounded by the shard deadline.
func (p *Pool) await(w *workerProc, what string) (frameIn, error) {
	var deadline <-chan time.Time
	if p.cfg.ShardTimeout > 0 {
		t := time.NewTimer(p.cfg.ShardTimeout)
		defer t.Stop()
		deadline = t.C
	}
	select {
	case f := <-w.frames:
		if f.err != nil {
			return frameIn{}, fmt.Errorf("worker %d died awaiting %s: %w", w.slot, what, f.err)
		}
		return f, nil
	case <-deadline:
		return frameIn{}, fmt.Errorf("worker %d exceeded %v awaiting %s (hung?)", w.slot, p.cfg.ShardTimeout, what)
	}
}

// startWorker launches a worker process into a slot and completes the
// hello handshake (so a version-mismatched or broken worker fails fast,
// before any shard depends on it).
func (p *Pool) startWorker(slot int) (*workerProc, error) {
	cmd := exec.Command(p.cfg.Command[0], p.cfg.Command[1:]...)
	cmd.Stderr = os.Stderr
	cmd.Env = append(os.Environ(), "PUFFER_DIST_WORKER=1")
	cmd.Env = append(cmd.Env, p.cfg.ExtraEnv...)
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, fmt.Errorf("dist: worker %d stdin: %w", slot, err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("dist: worker %d stdout: %w", slot, err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("dist: starting worker %d (%q): %w", slot, p.cfg.Command[0], err)
	}
	w := &workerProc{
		slot:   slot,
		cmd:    cmd,
		stdin:  stdin,
		bw:     bufio.NewWriterSize(stdin, 1<<16),
		frames: make(chan frameIn, 4),
	}
	go readFrames(stdout, w.frames)

	hello := func() error {
		if err := sendFrame(w.bw, frameHello, helloMsg{Version: ProtocolVersion, Worker: slot, Spec: p.cfg.Spec}); err != nil {
			return fmt.Errorf("dist: worker %d hello: %w", slot, err)
		}
		f, err := p.await(w, "hello-ok")
		if err != nil {
			return fmt.Errorf("dist: %w", err)
		}
		if f.typ != frameHelloOK {
			return p.workerFrameError(w, f, frameHelloOK)
		}
		var ok helloOKMsg
		if err := decodePayload(f.typ, f.payload, &ok); err != nil {
			return err
		}
		if ok.Version != ProtocolVersion {
			return &fatalError{fmt.Errorf("dist: worker %d speaks protocol v%d, coordinator v%d", slot, ok.Version, ProtocolVersion)}
		}
		return nil
	}
	if err := hello(); err != nil {
		p.kill(w)
		return nil, err
	}
	workersStarted.Inc()
	p.setLive(+1)
	p.cfg.Events.Emit("dist_worker_start", map[string]any{"worker": slot, "pid": cmd.Process.Pid})
	p.logf("dist: worker %d up (pid %d)", slot, cmd.Process.Pid)
	return w, nil
}

// replace kills slot's worker and starts a fresh one in its place,
// re-sending hello and the current day context. Consumes one unit of the
// restart budget; exhaustion is a hard error.
func (p *Pool) replace(slot int, cause error) error {
	p.muR.Lock()
	p.restarts++
	over := p.restarts > p.cfg.MaxRestarts
	p.muR.Unlock()
	if over {
		return fmt.Errorf("dist: worker restart budget (%d) exhausted; last failure: %w", p.cfg.MaxRestarts, cause)
	}
	if old := p.slots[slot]; old != nil {
		p.kill(old)
		p.cfg.Events.Emit("dist_worker_exit", map[string]any{"worker": slot, "cause": cause.Error()})
		p.slots[slot] = nil
		p.setLive(-1)
	}
	w, err := p.startWorker(slot)
	if err != nil {
		return fmt.Errorf("dist: replacing worker %d: %w", slot, err)
	}
	workerRestarts.Inc()
	if err := sendFrame(w.bw, frameDay, dayMsg{Day: p.day, Model: p.model}); err != nil {
		p.kill(w)
		return fmt.Errorf("dist: replacing worker %d: re-broadcasting day %d: %w", slot, p.day, err)
	}
	p.slots[slot] = w
	return nil
}

// setLive adjusts the live worker count and mirrors it to the gauge.
func (p *Pool) setLive(delta int) {
	p.muR.Lock()
	p.live += delta
	v := p.live
	p.muR.Unlock()
	workersLive.Set(float64(v))
}

// kill terminates a worker process and reaps it.
func (p *Pool) kill(w *workerProc) {
	_ = w.stdin.Close()
	if w.cmd.Process != nil {
		_ = w.cmd.Process.Kill()
	}
	_ = w.cmd.Wait()
}

// Close shuts the fleet down: a shutdown frame, then a bounded wait,
// then SIGKILL for stragglers. Idempotent.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for slot, w := range p.slots {
		if w == nil {
			continue
		}
		_ = sendFrame(w.bw, frameShutdown, nil)
		_ = w.stdin.Close()
		done := make(chan struct{})
		go func() { _ = w.cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			if w.cmd.Process != nil {
				_ = w.cmd.Process.Kill()
			}
			<-done
		}
		p.slots[slot] = nil
	}
	p.muR.Lock()
	p.live = 0
	p.muR.Unlock()
	workersLive.Set(0)
}

// readFrames pumps a worker's stdout frames into ch until read failure
// (including clean EOF at worker exit), which is sent as the final entry.
func readFrames(r io.Reader, ch chan<- frameIn) {
	br := bufio.NewReaderSize(r, 1<<16)
	for {
		typ, payload, _, err := wire.ReadFrame(br, nil, maxFrame)
		if err != nil {
			ch <- frameIn{err: fmt.Errorf("reading frame: %w", err)}
			return
		}
		ch <- frameIn{typ: typ, payload: payload}
	}
}

// shardOut is one completed shard's decoded results.
type shardOut struct {
	acc  *experiment.TrialAcc
	data *core.Dataset
}

// dayRun is the shared scheduling state for one day: a pending-shard
// queue, per-shard attempt counts, completed results, and abort plumbing.
type dayRun struct {
	mu        sync.Mutex
	pending   chan int // buffered to nShards; never blocks on requeue
	attempts  []int
	results   []*shardOut
	remaining int
	done      chan struct{}
	aborted   chan struct{}
	abortOnce sync.Once
	err       error
}

func newDayRun(nShards int) *dayRun {
	d := &dayRun{
		pending:   make(chan int, nShards),
		attempts:  make([]int, nShards),
		results:   make([]*shardOut, nShards),
		remaining: nShards,
		done:      make(chan struct{}),
		aborted:   make(chan struct{}),
	}
	for s := 0; s < nShards; s++ {
		d.pending <- s
	}
	return d
}

// take claims the next pending shard, or returns false when the day is
// complete or aborted.
func (d *dayRun) take() (int, bool) {
	select {
	case <-d.aborted:
		return 0, false
	default:
	}
	select {
	case s := <-d.pending:
		return s, true
	case <-d.done:
		return 0, false
	case <-d.aborted:
		return 0, false
	}
}

// attempt returns the current attempt index for a shard.
func (d *dayRun) attempt(s int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.attempts[s]
}

// requeue puts a failed shard back on the queue with a bumped attempt.
func (d *dayRun) requeue(s int) {
	d.mu.Lock()
	d.attempts[s]++
	d.mu.Unlock()
	d.pending <- s
}

// complete records a shard's result; the last one closes done.
func (d *dayRun) complete(s int, out *shardOut) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.results[s] != nil {
		return // duplicate (e.g. a late result after reassignment) — keep the first
	}
	d.results[s] = out
	d.remaining--
	if d.remaining == 0 {
		close(d.done)
	}
}

// abort ends the day with an error; the first abort wins.
func (d *dayRun) abort(err error) {
	d.abortOnce.Do(func() {
		d.err = err
		close(d.aborted)
	})
}

// Err returns the day's abort error, if any.
func (d *dayRun) Err() error {
	select {
	case <-d.aborted:
		return d.err
	default:
		return nil
	}
}
