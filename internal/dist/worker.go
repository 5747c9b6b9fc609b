package dist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"puffer/internal/core"
	"puffer/internal/experiment"
	"puffer/internal/wire"
)

// DayTrial is one day's trial as the worker runs it: the fully-built
// experiment config (schemes, env, seed — everything a shard fold needs)
// plus the shard size that defines the shard grid.
type DayTrial struct {
	Trial     experiment.Config
	ShardSize int
}

// DayFunc builds day's trial from the already-compiled spec and the day's
// deployed model (nil on the bootstrap day). It must derive seeds and
// scheme sets exactly as the single-process engine does; the scenario
// layer provides the canonical implementation.
type DayFunc func(day int, model *core.TTP) (DayTrial, error)

// TrialFactory compiles the canonical spec bytes broadcast in the hello
// frame into a DayFunc. It lives behind a function type so this package
// never imports the scenario layer (which imports this package).
type TrialFactory func(spec []byte) (DayFunc, error)

// Serve runs the worker side of the protocol over r/w (stdin/stdout of a
// subprocess worker) until the coordinator shuts it down or disappears.
// Any fatal worker-side failure is reported in an error frame before
// returning, so the coordinator logs the real cause instead of a bare
// exit status.
func Serve(r io.Reader, w io.Writer, factory TrialFactory) error {
	br := bufio.NewReaderSize(r, 1<<16)
	bw := bufio.NewWriterSize(w, 1<<16)
	fault, faultErr := ParseFault(os.Getenv(EnvFault))

	fail := func(err error) error {
		// Best effort: the coordinator may already be gone.
		_ = sendFrame(bw, frameError, errorMsg{Msg: err.Error()}.appendTo(nil))
		return err
	}

	var (
		dayFn   DayFunc
		cur     DayTrial
		curDay  int
		haveDay bool
	)
	for {
		typ, payload, _, err := wire.ReadFrame(br, nil, maxFrame)
		if errors.Is(err, io.EOF) {
			return nil // coordinator exited; nothing left to do
		}
		if err != nil {
			return err
		}
		switch typ {
		case frameHello:
			var h helloMsg
			if err := decodePayload(typ, payload, &h); err != nil {
				return fail(err)
			}
			if h.Version != ProtocolVersion {
				return fail(fmt.Errorf("dist: protocol version mismatch: coordinator v%d, worker v%d", h.Version, ProtocolVersion))
			}
			if faultErr != nil {
				return fail(faultErr)
			}
			if dayFn, err = factory(h.Spec); err != nil {
				return fail(fmt.Errorf("dist: worker %d: compiling spec: %w", h.Worker, err))
			}
			if err := sendFrame(bw, frameHelloOK, helloOKMsg{Version: ProtocolVersion}.appendTo(nil)); err != nil {
				return err
			}
		case frameDay:
			if dayFn == nil {
				return fail(fmt.Errorf("dist: day frame before hello"))
			}
			var d dayMsg
			if err := decodePayload(typ, payload, &d); err != nil {
				return fail(err)
			}
			var model *core.TTP
			if len(d.Model) > 0 {
				if model, err = core.Load(d.Model); err != nil {
					return fail(fmt.Errorf("dist: day %d model bytes: %w", d.Day, err))
				}
			}
			if cur, err = dayFn(d.Day, model); err != nil {
				return fail(fmt.Errorf("dist: building day %d trial: %w", d.Day, err))
			}
			curDay, haveDay = d.Day, true
		case frameAssign:
			var a assignMsg
			if err := decodePayload(typ, payload, &a); err != nil {
				return fail(err)
			}
			if !haveDay || a.Day != curDay {
				return fail(fmt.Errorf("dist: assigned day %d shard %d but current day is %d", a.Day, a.Shard, curDay))
			}
			blob, err := runShard(cur, a, fault)
			if err != nil {
				return fail(err)
			}
			if err := sendFrame(bw, frameResult, resultMsg{a, blob}.appendTo(nil)); err != nil {
				return err
			}
		case frameShutdown:
			return nil
		default:
			return fail(fmt.Errorf("dist: worker received unexpected %s frame", frameName(typ)))
		}
	}
}

// runShard folds one assigned shard into a fresh accumulator + dataset and
// packs them for the result frame. The shard is computed exactly as the
// single-process engine's shard unit (experiment.FoldShard with a private
// DatasetCollector), which is what makes the coordinator's shard-order
// merge byte-identical.
func runShard(cur DayTrial, a assignMsg, fault Fault) ([]byte, error) {
	lo, hi := experiment.ShardRange(cur.Trial.Sessions, cur.ShardSize, a.Shard)
	if lo >= hi {
		return nil, fmt.Errorf("dist: shard %d out of range for %d sessions (shard size %d)", a.Shard, cur.Trial.Sessions, cur.ShardSize)
	}
	if fault.Matches(FaultHang, a) {
		fmt.Fprintf(os.Stderr, "dist worker: %s=%s:day%d:shard%d — hanging\n", EnvFault, FaultHang, a.Day, a.Shard)
		select {} // hang until the coordinator's deadline kills us
	}
	if fault.Matches(FaultKill, a) {
		// Die mid-shard: run half the sessions (with their side effects),
		// then exit without reporting. The coordinator must reassign.
		trial := cur.Trial
		trial.Recorder = nil
		for id := lo; id < lo+(hi-lo+1)/2; id++ {
			trial.RunOne(id)
		}
		fmt.Fprintf(os.Stderr, "dist worker: %s=%s:day%d:shard%d — exiting mid-shard\n", EnvFault, FaultKill, a.Day, a.Shard)
		os.Exit(3)
	}
	col := experiment.NewDatasetCollector()
	trial := cur.Trial
	trial.Recorder = col
	acc := trial.FoldShard(lo, hi, experiment.AllPaths)
	return EncodeShard(acc, col.Dataset())
}
