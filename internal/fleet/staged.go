package fleet

import (
	"puffer/internal/abr"
	"puffer/internal/core"
	"puffer/internal/obs"
)

// Staged is one session's ABR algorithm with its decision split around a
// shared inference flush: Prepare stages the TTP rows, the owner of an
// InferenceService flushes them together with other sessions' rows, and
// Finish returns exactly what the algorithm's Choose would have. This file
// is the only code that knows the split; a fleet session and a serving
// connection each hold a Staged and differ only in how they wait between
// the halves. Not safe for concurrent use.
type Staged struct {
	alg      abr.Algorithm
	deferred abr.DeferredAlgorithm   // nil: the arm decides in one step, in Finish
	dp       *core.DeferredPredictor // nil: the arm has no TTP rows to batch

	// Wall-side stamps of the current decision (zero while recording is off).
	t0, prepNS, t1, finNS int64
}

// NewStaged wraps a freshly built per-session algorithm.
func NewStaged(alg abr.Algorithm) *Staged {
	s := &Staged{alg: alg}
	if d, ok := alg.(abr.DeferredAlgorithm); ok {
		s.deferred, s.dp = d, Deferify(alg)
	}
	return s
}

// Deferify rewires a freshly built per-session algorithm so its TTP-backed
// predictor stages batched fills instead of running them: it unwraps
// exploration layers, and when the MPC's predictor is the core TTP
// predictor, swaps in a DeferredPredictor and returns it. Algorithms
// without a TTP (BBA, the harmonic-mean MPCs) return nil and simply compute
// at their decision points.
func Deferify(alg abr.Algorithm) *core.DeferredPredictor {
	for {
		switch a := alg.(type) {
		case *abr.Explorer:
			alg = a.Base
		case *abr.MPC:
			if p, ok := a.Pred.(*core.Predictor); ok {
				dp := core.NewDeferredPredictor(p)
				a.Pred = dp
				return dp
			}
			return nil
		default:
			return nil
		}
	}
}

// Reset clears per-stream algorithm state. The experiment loop resets the
// algorithm it drives; a caller that only sees observations (the serving
// daemon) calls this at each stream's first chunk.
func (s *Staged) Reset() { s.alg.Reset() }

// Prepare runs the pre-flush half of the decision for o and returns the
// rows it staged (nil for an arm with no TTP), to be flushed before Finish.
func (s *Staged) Prepare(o *abr.Observation) []core.PendingStep {
	s.t0 = obs.Now()
	var rows []core.PendingStep
	if s.deferred != nil {
		s.deferred.PrepareChoose(o)
		if s.dp != nil {
			rows = s.dp.Pending()
		}
	}
	s.prepNS = obs.SinceNS(s.t0)
	return rows
}

// PrepareEnd is the stamp at which the last Prepare returned.
func (s *Staged) PrepareEnd() int64 { return s.t0 + s.prepNS }

// Finish completes the decision staged for the same o and releases its rows.
func (s *Staged) Finish(o *abr.Observation) int {
	s.t1 = obs.Now()
	var q int
	if s.deferred != nil {
		q = s.deferred.FinishChoose(o)
	} else {
		q = s.alg.Choose(o)
	}
	if s.dp != nil {
		s.dp.Clear()
	}
	s.finNS = obs.SinceNS(s.t1)
	return q
}

// Record books the decision just finished: its compute time (prepare plus
// finish, not the wait between) into hist and, when trace != 0, the
// prepare, batch_residency and finish spans under parent. resident is when
// the decision joined the batch it waited for — PrepareEnd for a caller
// that parks straight after Prepare.
func (s *Staged) Record(hist *obs.Histogram, trace, parent uint64, resident int64) {
	if s.t1 == 0 {
		return
	}
	hist.Observe(s.prepNS + s.finNS)
	tr := obs.Tracing()
	if tr == nil || trace == 0 {
		return
	}
	tr.Record(obs.Span{Trace: trace, ID: tr.NewSpanID(), Parent: parent, Name: "prepare", Start: s.t0, Dur: s.prepNS})
	tr.Record(obs.Span{Trace: trace, ID: tr.NewSpanID(), Parent: parent, Name: "batch_residency", Start: resident, Dur: s.t1 - resident})
	tr.Record(obs.Span{Trace: trace, ID: tr.NewSpanID(), Parent: parent, Name: "finish", Start: s.t1, Dur: s.finNS})
}
