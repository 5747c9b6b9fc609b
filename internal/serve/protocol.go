package serve

import (
	"errors"
	"fmt"

	"puffer/internal/abr"
	"puffer/internal/media"
	"puffer/internal/player"
	"puffer/internal/wire"
)

// ProtoVersion is the wire protocol version client and server speak; the
// server refuses a Hello of any other version. Bump it on any change to
// message layouts.
//
// v2: Hello ends in a flags u16; a Decide frame may carry a trailing
// 16-byte trace extension (trace id u64, parent span id u64, both zero
// meaning untraced) joining the client and server halves of one traced
// decision. An untraced Decide carries no extension.
//
// v3: a Decide no longer carries the client's buffer cap; every client has
// player.BufferCap.
//
// v4: a Decide carries only what the TTP and MPC read: a history record is
// (size, transmission time) and a horizon chunk is its versions. Hello
// drops the seed and the flags (a traced decision is marked by its trace
// extension), and ByeOK carries no payload.
const ProtoVersion = 4

// decideExtLen is the size of the optional Decide trace extension.
const decideExtLen = 16

// Message types. One byte follows the length prefix of every frame.
const (
	msgHello    = 0x01 // client → server: open a session
	msgHelloOK  = 0x02 // server → client: session accepted
	msgDecide   = 0x03 // client → server: one ABR decision request
	msgDecideOK = 0x04 // server → client: the chosen ladder rung
	msgBye      = 0x05 // client → server: session finished cleanly
	msgByeOK    = 0x06 // server → client: close acknowledged
	msgError    = 0x07 // server → client: fatal protocol/plan error
)

// maxFrame bounds any frame (wire.ReadFrame's max). A Decide carries at
// most HistoryLen records plus a five-chunk horizon with a ~10-rung ladder —
// a few kilobytes — so 1 MiB is a generous corruption guard.
const maxFrame = 1 << 20

// errBadObservation marks a Decide that decoded cleanly but describes a
// state no client can be in; an algorithm handed it could index out of range
// or size a table from it.
var errBadObservation = errors.New("serve: invalid observation")

// hello is the session-opening handshake. The plan hash pins the exact
// (spec, day) identity on both ends; the day is redundant with it but makes
// an unknown-scheme error actionable.
type hello struct {
	Version  uint16
	Day      int
	Session  int
	Scheme   string
	PlanHash string
}

func encodeHello(b []byte, h *hello) []byte {
	b = wire.AppendU16(b, h.Version)
	b = wire.AppendI32(b, h.Day)
	b = wire.AppendI32(b, h.Session)
	b = wire.AppendStr(b, h.Scheme)
	return wire.AppendStr(b, h.PlanHash)
}

func decodeHello(payload []byte) (hello, error) {
	r := wire.NewReader(payload)
	h := hello{
		Version:  r.U16(),
		Day:      r.I32(),
		Session:  r.I32(),
		Scheme:   r.Str(),
		PlanHash: r.Str(),
	}
	return h, r.Done()
}

// encodeDecide serializes one decision request: the session's virtual
// `now` plus what the TTP and MPC read of the abr.Observation (chunk index,
// buffer, previous rung and SSIM, each past chunk's size and transmission
// time, the tcp_info snapshot, and the horizon's encodings). A nonzero
// traceID appends the trace extension — the decision's trace id and the
// client's root span id — so the server's spans join the client's trace;
// traceID 0 appends nothing.
func encodeDecide(b []byte, now float64, obs *abr.Observation, traceID, parentSpan uint64) []byte {
	b = wire.AppendF64(b, now)
	b = wire.AppendI32(b, obs.ChunkIndex)
	b = wire.AppendF64(b, obs.Buffer)
	b = wire.AppendI32(b, obs.LastQuality)
	b = wire.AppendF64(b, obs.LastSSIM)
	b = append(b, byte(len(obs.History)))
	for _, h := range obs.History {
		b = wire.AppendF64(b, h.Size)
		b = wire.AppendF64(b, h.TransTime)
	}
	b = wire.AppendF64(b, obs.TCP.CWND)
	b = wire.AppendF64(b, obs.TCP.InFlight)
	b = wire.AppendF64(b, obs.TCP.MinRTT)
	b = wire.AppendF64(b, obs.TCP.RTT)
	b = wire.AppendF64(b, obs.TCP.DeliveryRate)
	b = append(b, byte(len(obs.Horizon)))
	for _, c := range obs.Horizon {
		b = append(b, byte(len(c.Versions)))
		for _, v := range c.Versions {
			b = wire.AppendF64(b, v.Size)
			b = wire.AppendF64(b, v.SSIMdB)
		}
	}
	if traceID != 0 {
		b = wire.AppendU64(b, traceID)
		b = wire.AppendU64(b, parentSpan)
	}
	return b
}

// decodeDecide fills obs from a Decide payload, reusing obs's History and
// Horizon slices (one observation per session is live at a time, so the
// buffers amortize to zero allocations in steady state). The trailing
// trace extension is optional: exactly decideExtLen remaining bytes decode
// as (traceID, parentSpan), zero remaining means untraced, any other
// remainder is a frame error. An observation that decodes but
// fails checkObservation is an error too (errBadObservation): what comes
// back without one is safe to hand to any algorithm.
func decodeDecide(payload []byte, obs *abr.Observation) (now float64, traceID, parentSpan uint64, err error) {
	r := wire.NewReader(payload)
	now = r.F64()
	obs.ChunkIndex = r.I32()
	obs.Buffer = r.F64()
	obs.LastQuality = r.I32()
	obs.LastSSIM = r.F64()
	nh := int(r.U8())
	obs.History = obs.History[:0]
	for i := 0; i < nh && r.Err() == nil; i++ {
		obs.History = append(obs.History, abr.ChunkRecord{Size: r.F64(), TransTime: r.F64()})
	}
	obs.TCP.CWND = r.F64()
	obs.TCP.InFlight = r.F64()
	obs.TCP.MinRTT = r.F64()
	obs.TCP.RTT = r.F64()
	obs.TCP.DeliveryRate = r.F64()
	nc := int(r.U8())
	if cap(obs.Horizon) < nc {
		obs.Horizon = make([]media.Chunk, 0, nc)
	}
	obs.Horizon = obs.Horizon[:0]
	for i := 0; i < nc && r.Err() == nil; i++ {
		var c media.Chunk
		nv := int(r.U8())
		if i < len(obs.Horizon[:cap(obs.Horizon)]) {
			// Reuse the previous decode's Versions backing array.
			c.Versions = obs.Horizon[:cap(obs.Horizon)][i].Versions[:0]
		}
		for v := 0; v < nv && r.Err() == nil; v++ {
			c.Versions = append(c.Versions, media.Encoding{Size: r.F64(), SSIMdB: r.F64()})
		}
		obs.Horizon = append(obs.Horizon, c)
	}
	if r.Err() == nil && r.Len() == decideExtLen {
		traceID = r.U64()
		parentSpan = r.U64()
	}
	if err := r.Done(); err != nil {
		return now, traceID, parentSpan, err
	}
	return now, traceID, parentSpan, checkObservation(obs)
}

// checkObservation rejects what the algorithms behind the server take on
// trust from an in-process caller: a buffer in [0, player.BufferCap] (the
// player clamps its level to the cap), a non-empty horizon whose chunks all
// offer the same non-empty ladder, and a previous rung on that ladder
// (negative: none yet).
func checkObservation(obs *abr.Observation) error {
	if !(obs.Buffer >= 0 && obs.Buffer <= player.BufferCap) {
		return fmt.Errorf("%w: buffer %v s outside [0, %v]", errBadObservation, obs.Buffer, player.BufferCap)
	}
	if len(obs.Horizon) == 0 {
		return fmt.Errorf("%w: empty horizon", errBadObservation)
	}
	nQ := len(obs.Horizon[0].Versions)
	for i, c := range obs.Horizon {
		if len(c.Versions) != nQ || nQ == 0 {
			return fmt.Errorf("%w: horizon chunk %d has %d versions, chunk 0 has %d", errBadObservation, i, len(c.Versions), nQ)
		}
	}
	if obs.LastQuality >= nQ {
		return fmt.Errorf("%w: last quality %d on a %d-rung ladder", errBadObservation, obs.LastQuality, nQ)
	}
	return nil
}
