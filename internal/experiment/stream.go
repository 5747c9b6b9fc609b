package experiment

import (
	"math/rand"

	"puffer/internal/abr"
	"puffer/internal/core"
	"puffer/internal/media"
	"puffer/internal/netem"
	"puffer/internal/player"
	"puffer/internal/tcpsim"
	"puffer/internal/telemetry"
)

// Outcome records why a stream ended.
type Outcome int

const (
	// OutcomeFinished: the viewer watched their intended duration.
	OutcomeFinished Outcome = iota
	// OutcomeNeverPlayed: startup outlasted the viewer's patience.
	OutcomeNeverPlayed
	// OutcomeAbandonedStall: a stall drove the viewer away.
	OutcomeAbandonedStall
	// OutcomeDrifted: the viewer drifted off (quality-coupled hazard).
	OutcomeDrifted
	// OutcomeBadDecoder: excluded for a slow client decoder.
	OutcomeBadDecoder
)

// endsSession reports whether the outcome terminates the whole session
// (the viewer left the site) rather than just the stream.
func (o Outcome) endsSession() bool {
	return o == OutcomeAbandonedStall || o == OutcomeDrifted
}

// Recorder observes every sent chunk; the TTP's training data is gathered
// through this hook.
type Recorder interface {
	RecordChunk(day int, streamKey int, obs core.ChunkObs)
}

// DecideHook intercepts every ABR decision of a session. An execution
// engine that multiplexes many sessions (the fleet engine) uses it to park
// the session at its decision points: now is the session connection's
// current time, and the hook must return exactly what alg.Choose(obs) would
// — e.g. by splitting a DeferredAlgorithm around an external batched
// inference pass. A nil hook means decisions run inline via alg.Choose.
type DecideHook interface {
	Decide(alg abr.Algorithm, obs *abr.Observation, now float64) int
}

// streamParams bundles the state one stream needs.
type streamParams struct {
	env      *Env
	alg      abr.Algorithm
	conn     *tcpsim.Conn
	rng      *rand.Rand
	scheme   string
	session  int
	streamIX int
	intended float64 // seconds the viewer means to watch this stream
	day      int
	recorder Recorder
	hook     DecideHook
}

// decide routes one decision through the hook when present.
func (p *streamParams) decide(obs *abr.Observation) int {
	if p.hook != nil {
		return p.hook.Decide(p.alg, obs, p.conn.Now())
	}
	return p.alg.Choose(obs)
}

// runStream simulates one stream over an existing connection and returns
// its summary and outcome.
func runStream(p streamParams) (telemetry.StreamSummary, Outcome) {
	src := p.env.newSource(p.rng)
	buf := &player.Buffer{}
	builder := telemetry.NewSummaryBuilder(p.session, p.streamIX, p.scheme)
	p.alg.Reset()

	if p.rng.Float64() < badDecoderProb {
		return builder.Finish(0, 0, 0, false, true), OutcomeBadDecoder
	}

	// The encoder runs ahead of the playhead: keep lookAhead chunks of
	// the upcoming schedule materialized.
	horizon := make([]media.Chunk, 0, lookAhead)
	for len(horizon) < lookAhead {
		horizon = append(horizon, src.Next())
	}

	history := make([]abr.ChunkRecord, 0, abr.HistoryLen)
	outcome := OutcomeFinished
	patience := player.StartupPatience(p.rng)
	streamStart := p.conn.Now()
	lastQuality := -1
	lastSSIM := 0.0
	maxChunks := int(p.intended/media.ChunkDuration) + 8

	for chunkIX := 0; chunkIX < maxChunks; chunkIX++ {
		obs := abr.Observation{
			ChunkIndex:  chunkIX,
			Buffer:      buf.Level(),
			LastQuality: lastQuality,
			LastSSIM:    lastSSIM,
			History:     history,
			TCP:         p.conn.Info(),
			Horizon:     horizon,
		}
		q := p.decide(&obs)
		if q < 0 || q >= len(horizon[0].Versions) {
			q = 0
		}
		enc := horizon[0].Versions[q]

		infoAtSend := obs.TCP
		deadline := buf.Level() + maxStall
		elapsed, completed := p.conn.TransferUpTo(enc.Size, deadline)

		if p.recorder != nil && completed {
			// Key streams uniquely so telemetry sequences do not mix
			// across channel changes.
			p.recorder.RecordChunk(p.day, p.session*16+p.streamIX, core.ChunkObs{
				Size: enc.Size, TransTime: elapsed, Info: infoAtSend, Day: p.day,
			})
		}

		if !completed {
			// The transfer outlasted any plausible patience.
			if !buf.Playing() {
				outcome = OutcomeNeverPlayed
			} else {
				buf.CompleteChunk(elapsed, media.ChunkDuration)
				outcome = OutcomeAbandonedStall
			}
			break
		}

		stall := buf.CompleteChunk(elapsed, media.ChunkDuration)
		builder.Chunk(enc.SSIMdB, enc.Size, infoAtSend.DeliveryRate)

		if !buf.Playing() {
			startup := p.conn.Now() - streamStart
			if startup > patience {
				outcome = OutcomeNeverPlayed
				break
			}
			buf.StartPlayback(startup)
		}

		if stall > 0 && player.AbandonOnStall(p.rng, stall) {
			outcome = OutcomeAbandonedStall
			break
		}
		if player.LeaveAfterChunk(p.rng, enc.SSIMdB) {
			outcome = OutcomeDrifted
			break
		}
		if buf.Played >= p.intended {
			break
		}

		// Bookkeeping for the next decision.
		history = append(history, abr.ChunkRecord{Size: enc.Size, TransTime: elapsed})
		if len(history) > abr.HistoryLen {
			history = history[1:]
		}
		lastQuality, lastSSIM = q, enc.SSIMdB
		copy(horizon, horizon[1:])
		horizon[len(horizon)-1] = src.Next()

		// Respect the client's buffer cap: wait for room.
		if wait := buf.RoomWait(media.ChunkDuration); wait > 0 {
			p.conn.Wait(wait)
			buf.Drain(wait)
		}
	}

	neverPlayed := outcome == OutcomeNeverPlayed
	return builder.Finish(buf.Startup, buf.Played, buf.Stalled, neverPlayed, false), outcome
}

// SessionResult is one session's streams plus the time-on-site figure used
// in Figure 10.
type SessionResult struct {
	Scheme  string
	Streams []telemetry.StreamSummary
	// Duration is the total time on the video player in seconds, from
	// session start to the last event.
	Duration float64
}

// RunSessionHooked simulates a full session: connection setup, a
// channel-zapping phase of short browse streams, then a main viewing stream;
// channel changes reuse the TCP connection, as on Puffer. The experiment day
// reaches the path sampler, so a day-aware (drifting) Env.Paths draws this
// session's network situation from that day's distribution.
//
// Every ABR decision is routed through hook; nil asks alg directly. A
// session's outcome depends only on its inputs and the hook honoring the
// Decide contract, which is what lets the fleet engine interleave sessions
// in virtual time while staying byte-identical to sequential execution.
func RunSessionHooked(env *Env, alg abr.Algorithm, rng *rand.Rand, sessionID int, scheme string, day int, rec Recorder, hook DecideHook) SessionResult {
	res := SessionResult{Scheme: scheme}
	path := netem.SampleForDay(env.Paths, rng, traceDuration, day)
	conn := tcpsim.Dial(path, rng)

	// Browse phase: quick channel changes with short intended durations
	// (these generate the "never began playing" and "<4s" CONSORT rows).
	browse := int(rng.ExpFloat64() * 1.8)
	if browse > 8 {
		browse = 8
	}
	intents := make([]float64, 0, browse+1)
	for i := 0; i < browse; i++ {
		intents = append(intents, 0.5+float64(rng.ExpFloat64()*4))
	}
	intents = append(intents, player.IntendedDuration(rng))

	for i, intended := range intents {
		sum, outcome := runStream(streamParams{
			env: env, alg: alg, conn: conn, rng: rng,
			scheme: scheme, session: sessionID, streamIX: i,
			intended: intended, day: day, recorder: rec, hook: hook,
		})
		res.Streams = append(res.Streams, sum)
		if outcome.endsSession() {
			break
		}
		// Brief channel-change gap.
		conn.Wait(0.2 + float64(rng.Float64()*0.5))
	}
	res.Duration = conn.Now()
	return res
}
