package dist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"sync/atomic"
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
	// ShardTimeout bounds one shard assignment, and the hello handshake;
	// a worker that exceeds it is presumed hung, killed, and its shard
	// reassigned. 0 disables the deadline.
	ShardTimeout time.Duration
	// Logf, if set, receives coordinator progress lines.
	Logf func(format string, args ...any)
	// Events, if set, receives worker lifecycle events.
	Events *obs.EventLog
}

// Pool drives a fleet of local subprocess workers through days of shard
// execution. Workers persist across days: each RunDay sends every worker it
// uses the day frame, then schedules shards over the same processes. Not
// safe for concurrent RunDay calls — the daily loop is sequential by design.
type Pool struct {
	cfg      PoolConfig
	slots    []*workerProc // slot i is driven only by goroutine i during a day
	restarts atomic.Int64  // replacements consumed from the budget
	live     atomic.Int64  // live worker count (mirrors the dist_workers_live gauge)
	day      dayMsg        // the current day, sent to every worker that joins it
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
	return &Pool{cfg: cfg, slots: make([]*workerProc, cfg.Workers)}, nil
}

// logf forwards to the configured logger, if any.
func (p *Pool) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}

// RunDay executes one day's trial across the pool: each slot's worker joins
// the day (started and given the day frame), the day's shards are scheduled
// over the workers (reassigned on death or deadline), and the results are
// merged in shard order. The returned accumulator and dataset are
// byte-identical to the session engine's RunSharded + DatasetCollector at
// the same seeds.
func (p *Pool) RunDay(day int, model *core.TTP, sessions, shardSize int) (*experiment.TrialAcc, *core.Dataset, error) {
	if p.closed {
		return nil, nil, fmt.Errorf("dist: pool is closed")
	}
	if sessions <= 0 || shardSize <= 0 {
		return nil, nil, fmt.Errorf("dist: RunDay needs positive sessions (%d) and shard size (%d)", sessions, shardSize)
	}
	p.day = dayMsg{Day: day}
	if model != nil {
		p.day.Model = model.AppendTo(nil)
	}

	q := newDayQueue(experiment.NumShards(sessions, shardSize))
	var wg sync.WaitGroup
	for slot := range min(len(p.slots), len(q.results)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.drive(slot, q)
		}()
	}
	wg.Wait()
	// Two drivers' gauge writes may land in either order; the day ends on
	// the true count.
	workersLive.Set(float64(p.live.Load()))
	if q.err != nil {
		return nil, nil, q.err
	}

	// The canonical aggregation: merge per-shard results in shard order.
	total := experiment.NewTrialAcc(experiment.AllPaths)
	data := &core.Dataset{}
	for _, out := range q.results {
		total.Merge(out.acc)
		data.Streams = append(data.Streams, out.data.Streams...)
	}
	return total, data, nil
}

// drive is one slot's loop for a day: join the slot's worker to the day,
// then run shards off the queue until it is empty. A worker that fails is
// replaced (within the restart budget) and its shard requeued, which this
// driver retakes unless another gets there first; a fatal failure, or a
// replacement that fails, ends the day.
func (p *Pool) drive(slot int, q *dayQueue) {
	err := p.join(slot)
	for {
		if err != nil {
			if err = p.replace(slot, err); err != nil {
				q.fail(err)
				return
			}
		}
		s, att, ok := q.take()
		if !ok {
			return
		}
		t0 := obs.Now()
		var out *shardOut
		if out, err = p.runShard(slot, assignMsg{Day: p.day.Day, Shard: s, Attempt: att}); err == nil {
			shardWallNS.Observe(obs.SinceNS(t0))
			shardsDone.Inc()
			q.complete(s, out)
			continue
		}
		q.requeue(s)
		if !errors.As(err, new(*fatalError)) {
			shardRetries.Inc()
			p.cfg.Events.Emit("dist_shard_reassigned", map[string]any{
				"day": p.day.Day, "shard": s, "attempt": att, "worker": slot, "cause": err.Error(),
			})
			p.logf("dist: day %d shard %d attempt %d on worker %d failed: %v — reassigning", p.day.Day, s, att, slot, err)
		}
	}
}

// runShard sends slot's worker one assignment and awaits its result.
// Transport failures and deadline overruns return retryable errors (the
// caller reassigns); semantic mismatches return *fatalError.
func (p *Pool) runShard(slot int, a assignMsg) (*shardOut, error) {
	w := p.slots[slot]
	// The send fails only if the worker has exited; the read below then
	// returns what it reported before it went (say, why the day frame
	// failed), or its death.
	_ = sendFrame(w.bw, frameAssign, a.appendTo(nil))
	f, err := p.await(w, fmt.Sprintf("day %d shard %d result", a.Day, a.Shard))
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
	if res.assignMsg != a {
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

// join is a slot's one path to the current day: it starts a worker in an
// empty slot, through the hello handshake (so a version-mismatched or
// broken worker fails fast, before any shard depends on it), then sends the
// day frame. A worker that does not take the frame is dropped.
func (p *Pool) join(slot int) error {
	w := p.slots[slot]
	if w == nil {
		var err error
		if w, err = p.startWorker(slot); err != nil {
			return err
		}
		p.slots[slot] = w
	}
	if err := sendFrame(w.bw, frameDay, p.day.appendTo(nil)); err != nil {
		err = fmt.Errorf("dist: worker %d: sending day %d: %w", slot, p.day.Day, err)
		p.drop(slot, err)
		return err
	}
	return nil
}

// startWorker launches a worker process for slot and completes the hello
// handshake.
func (p *Pool) startWorker(slot int) (*workerProc, error) {
	cmd := exec.Command(p.cfg.Command[0], p.cfg.Command[1:]...)
	cmd.Stderr = os.Stderr
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
	if err := p.hello(w); err != nil {
		p.kill(w)
		return nil, err
	}
	workersStarted.Inc()
	p.setLive(+1)
	p.cfg.Events.Emit("dist_worker_start", map[string]any{"worker": slot, "pid": cmd.Process.Pid})
	p.logf("dist: worker %d up (pid %d)", slot, cmd.Process.Pid)
	return w, nil
}

// hello sends w the hello frame and checks the version it acknowledges.
func (p *Pool) hello(w *workerProc) error {
	if err := sendFrame(w.bw, frameHello, helloMsg{Version: ProtocolVersion, Worker: w.slot, Spec: p.cfg.Spec}.appendTo(nil)); err != nil {
		return fmt.Errorf("dist: worker %d hello: %w", w.slot, err)
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
		return &fatalError{fmt.Errorf("dist: worker %d speaks protocol v%d, coordinator v%d", w.slot, ok.Version, ProtocolVersion)}
	}
	return nil
}

// replace drops slot's worker after cause and, unless cause is fatal,
// joins a fresh worker to the day in its place. Each replacement consumes
// one unit of the restart budget, 2*Workers+2 over the pool's lifetime;
// exhaustion is a hard error, so a crash-looping fleet aborts instead of
// spinning.
func (p *Pool) replace(slot int, cause error) error {
	if p.slots[slot] != nil {
		p.drop(slot, cause)
	}
	if errors.As(cause, new(*fatalError)) {
		return cause
	}
	if budget := 2*p.cfg.Workers + 2; p.restarts.Add(1) > int64(budget) {
		return fmt.Errorf("dist: worker restart budget (%d) exhausted; last failure: %w", budget, cause)
	}
	if err := p.join(slot); err != nil {
		return fmt.Errorf("dist: replacing worker %d: %w", slot, err)
	}
	workerRestarts.Inc()
	return nil
}

// drop kills slot's worker and empties the slot.
func (p *Pool) drop(slot int, cause error) {
	p.kill(p.slots[slot])
	p.slots[slot] = nil
	p.setLive(-1)
	p.cfg.Events.Emit("dist_worker_exit", map[string]any{"worker": slot, "cause": cause.Error()})
}

// setLive adjusts the live worker count and mirrors it to the gauge.
func (p *Pool) setLive(delta int64) { workersLive.Set(float64(p.live.Add(delta))) }

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
	p.live.Store(0)
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

// dayQueue is one day's scheduling state under one lock: the shards not
// yet taken, each shard's attempt count and result, and the first error.
// Only the driver that failed a shard requeues it, and that driver then
// takes again or fails the day, so once every driver has found the queue
// empty every shard has its result.
type dayQueue struct {
	mu       sync.Mutex
	pending  []int
	attempts []int
	results  []*shardOut
	err      error
}

func newDayQueue(nShards int) *dayQueue {
	q := &dayQueue{pending: make([]int, nShards), attempts: make([]int, nShards), results: make([]*shardOut, nShards)}
	for s := range q.pending {
		q.pending[s] = s
	}
	return q
}

// take pops the next shard and its attempt index, or reports false once
// the queue is empty or the day has failed.
func (q *dayQueue) take() (shard, attempt int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err != nil || len(q.pending) == 0 {
		return 0, 0, false
	}
	shard, q.pending = q.pending[0], q.pending[1:]
	return shard, q.attempts[shard], true
}

// requeue puts a failed shard back with one more attempt.
func (q *dayQueue) requeue(s int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.attempts[s]++
	q.pending = append(q.pending, s)
}

// complete records a shard's result.
func (q *dayQueue) complete(s int, out *shardOut) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.results[s] = out
}

// fail ends the day with err; the first error wins.
func (q *dayQueue) fail(err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.err == nil {
		q.err = err
	}
}
