package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"puffer/internal/abr"
	"puffer/internal/media"
)

// ProtoVersion is the wire protocol version the client speaks; the server
// accepts any version in [ProtoMinVersion, ProtoVersion]. Bump ProtoVersion
// on any change to message layouts; raise ProtoMinVersion only when a
// version can no longer be decoded.
//
// v1: the original handshake and Decide layouts.
// v2: Hello carries a trailing flags u16; a Decide frame may carry a
// trailing 16-byte trace extension (trace id u64, parent span id u64, both
// zero meaning untraced) joining the client and server halves of one traced
// decision. A v2 server decodes v1 frames unchanged, and a v2 client that
// traces nothing emits byte-identical v1 Decide payloads.
const (
	ProtoVersion    = 2
	ProtoMinVersion = 1
)

// helloFlagTracing marks a v2 session whose client samples decisions for
// tracing (informational: the server records spans for any Decide whose
// trace extension is nonzero).
const helloFlagTracing uint16 = 1 << 0

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
// most HistoryLen records plus a LookAhead horizon with a ~10-rung ladder —
// a few kilobytes — so 1 MiB is a generous corruption guard.
const maxFrame = 1 << 20

// maxBufferCap bounds the client buffer a Decide may claim, in seconds —
// four times Puffer's 15. The MPC sizes its value planes by it (four bins a
// second, per rung), so without a bound one frame asks for gigabytes.
const maxBufferCap = 60

// errBadObservation marks a Decide that decoded cleanly but describes a
// state no client can be in; an algorithm handed it could index out of range
// or size a table from it.
var errBadObservation = errors.New("serve: invalid observation")

// Append-style encoders. Floats travel as IEEE-754 bits, so every value
// round-trips bit-exactly — the byte-identity guarantee depends on it.

func appendU16(b []byte, v uint16) []byte { return binary.BigEndian.AppendUint16(b, v) }
func appendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }
func appendI32(b []byte, v int) []byte    { return appendU32(b, uint32(int32(v))) }
func appendF64(b []byte, v float64) []byte {
	return appendU64(b, math.Float64bits(v))
}

// appendStr writes a u16 length and the string, truncated to what the
// length can say: a longer one (an Error message quoting a hostile Hello)
// would wrap the length and leave trailing garbage in the frame.
func appendStr(b []byte, s string) []byte {
	s = s[:min(len(s), math.MaxUint16)]
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}

// reader decodes a payload sequentially; the first short read poisons it.
type reader struct {
	b   []byte
	err error
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.b) < n {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

func (r *reader) u8() uint8 {
	v := r.take(1)
	if v == nil {
		return 0
	}
	return v[0]
}

func (r *reader) u16() uint16 {
	v := r.take(2)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint16(v)
}

func (r *reader) u32() uint32 {
	v := r.take(4)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint32(v)
}

func (r *reader) u64() uint64 {
	v := r.take(8)
	if v == nil {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

func (r *reader) i32() int     { return int(int32(r.u32())) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) str() string {
	n := int(r.u16())
	v := r.take(n)
	if v == nil {
		return ""
	}
	return string(v)
}

// done returns the accumulated decode error, or complains about trailing
// bytes — a frame must be consumed exactly.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if len(r.b) != 0 {
		return fmt.Errorf("serve: %d trailing bytes in frame", len(r.b))
	}
	return nil
}

// hello is the session-opening handshake. The plan hash pins the exact
// (spec, day) identity on both ends; day, seed, and sessions are redundant
// with it but make mismatch errors actionable.
type hello struct {
	Version  uint16
	Day      int
	Session  int
	Seed     int64
	Scheme   string
	PlanHash string
	Flags    uint16 // v2+: helloFlag* bits; absent (zero) at v1
}

func encodeHello(b []byte, h *hello) []byte {
	b = appendU16(b, h.Version)
	b = appendI32(b, h.Day)
	b = appendI32(b, h.Session)
	b = appendU64(b, uint64(h.Seed))
	b = appendStr(b, h.Scheme)
	b = appendStr(b, h.PlanHash)
	if h.Version >= 2 {
		b = appendU16(b, h.Flags)
	}
	return b
}

func decodeHello(payload []byte) (hello, error) {
	r := reader{b: payload}
	h := hello{
		Version:  r.u16(),
		Day:      r.i32(),
		Session:  r.i32(),
		Seed:     int64(r.u64()),
		Scheme:   r.str(),
		PlanHash: r.str(),
	}
	if h.Version >= 2 {
		h.Flags = r.u16()
	}
	return h, r.done()
}

// encodeDecide serializes one decision request: the session's virtual
// `now` plus the full abr.Observation (history, tcp_info snapshot, and the
// materialized encoding horizon). A nonzero traceID appends the v2 trace
// extension — the decision's trace id and the client's root span id — so
// the server's spans join the client's trace; traceID 0 emits a payload
// byte-identical to v1.
func encodeDecide(b []byte, now float64, obs *abr.Observation, traceID, parentSpan uint64) []byte {
	b = encodeDecideBody(b, now, obs)
	if traceID != 0 {
		b = appendU64(b, traceID)
		b = appendU64(b, parentSpan)
	}
	return b
}

func encodeDecideBody(b []byte, now float64, obs *abr.Observation) []byte {
	b = appendF64(b, now)
	b = appendI32(b, obs.ChunkIndex)
	b = appendF64(b, obs.Buffer)
	b = appendF64(b, obs.BufferCap)
	b = appendI32(b, obs.LastQuality)
	b = appendF64(b, obs.LastSSIM)
	b = append(b, byte(len(obs.History)))
	for _, h := range obs.History {
		b = appendF64(b, h.Size)
		b = appendF64(b, h.TransTime)
		b = appendF64(b, h.SSIMdB)
		b = appendI32(b, h.Quality)
	}
	b = appendF64(b, obs.TCP.CWND)
	b = appendF64(b, obs.TCP.InFlight)
	b = appendF64(b, obs.TCP.MinRTT)
	b = appendF64(b, obs.TCP.RTT)
	b = appendF64(b, obs.TCP.DeliveryRate)
	b = append(b, byte(len(obs.Horizon)))
	for _, c := range obs.Horizon {
		b = appendI32(b, c.Index)
		b = appendF64(b, c.Complexity)
		b = append(b, byte(len(c.Versions)))
		for _, v := range c.Versions {
			b = appendF64(b, v.Size)
			b = appendF64(b, v.SSIMdB)
		}
	}
	return b
}

// decodeDecide fills obs from a Decide payload, reusing obs's History and
// Horizon slices (one observation per session is live at a time, so the
// buffers amortize to zero allocations in steady state). The trailing v2
// trace extension is optional: exactly decideExtLen remaining bytes decode
// as (traceID, parentSpan), zero remaining means untraced (every v1 frame),
// any other remainder is a frame error. An observation that decodes but
// fails checkObservation is an error too (errBadObservation): what comes
// back without one is safe to hand to any algorithm.
func decodeDecide(payload []byte, obs *abr.Observation) (now float64, traceID, parentSpan uint64, err error) {
	r := reader{b: payload}
	now = r.f64()
	obs.ChunkIndex = r.i32()
	obs.Buffer = r.f64()
	obs.BufferCap = r.f64()
	obs.LastQuality = r.i32()
	obs.LastSSIM = r.f64()
	nh := int(r.u8())
	obs.History = obs.History[:0]
	for i := 0; i < nh && r.err == nil; i++ {
		obs.History = append(obs.History, abr.ChunkRecord{
			Size:      r.f64(),
			TransTime: r.f64(),
			SSIMdB:    r.f64(),
			Quality:   r.i32(),
		})
	}
	obs.TCP.CWND = r.f64()
	obs.TCP.InFlight = r.f64()
	obs.TCP.MinRTT = r.f64()
	obs.TCP.RTT = r.f64()
	obs.TCP.DeliveryRate = r.f64()
	nc := int(r.u8())
	if cap(obs.Horizon) < nc {
		obs.Horizon = make([]media.Chunk, 0, nc)
	}
	obs.Horizon = obs.Horizon[:0]
	for i := 0; i < nc && r.err == nil; i++ {
		c := media.Chunk{Index: r.i32(), Complexity: r.f64()}
		nv := int(r.u8())
		if i < len(obs.Horizon[:cap(obs.Horizon)]) {
			// Reuse the previous decode's Versions backing array.
			c.Versions = obs.Horizon[:cap(obs.Horizon)][i].Versions[:0]
		}
		for v := 0; v < nv && r.err == nil; v++ {
			c.Versions = append(c.Versions, media.Encoding{Size: r.f64(), SSIMdB: r.f64()})
		}
		obs.Horizon = append(obs.Horizon, c)
	}
	if r.err == nil && len(r.b) == decideExtLen {
		traceID = r.u64()
		parentSpan = r.u64()
	}
	if err := r.done(); err != nil {
		return now, traceID, parentSpan, err
	}
	return now, traceID, parentSpan, checkObservation(obs)
}

// checkObservation rejects what the algorithms behind the server take on
// trust from an in-process caller: a buffer and a cap that are finite and in
// range, a non-empty horizon whose chunks all offer the same non-empty
// ladder, and a previous rung on that ladder (negative: none yet).
func checkObservation(obs *abr.Observation) error {
	if !(obs.BufferCap > 0 && obs.BufferCap <= maxBufferCap) {
		return fmt.Errorf("%w: buffer cap %v s outside (0, %d]", errBadObservation, obs.BufferCap, maxBufferCap)
	}
	if !(obs.Buffer >= 0 && obs.Buffer <= math.MaxFloat64) {
		return fmt.Errorf("%w: buffer %v s", errBadObservation, obs.Buffer)
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
