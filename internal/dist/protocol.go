package dist

import (
	"bufio"
	"fmt"

	"puffer/internal/wire"
)

// ProtocolVersion is the coordinator/worker wire protocol version. The
// coordinator sends it in the hello frame and the worker echoes it back;
// any mismatch aborts the handshake loudly instead of risking a silent
// wrong merge. v2: every payload is a fixed layout on internal/wire (v1
// spoke gob). v3: no claim frame — each driver runs assign then result in
// turn, so a worker's readiness is the result the coordinator awaited.
const ProtocolVersion = 3

// maxFrame bounds a single frame's length (wire.ReadFrame's max). A day's
// model is a few MB and a shard blob tens of MB at paper scale; 256 MiB
// leaves ample headroom.
const maxFrame = 256 << 20

// Frame types. Every frame is a wire frame whose payload is its message's
// fixed layout (empty for shutdown): integers as big-endian i32, byte
// runs as a u32 count and the bytes, the error text as a u16-length string.
const (
	frameHello    byte = 1 // coordinator -> worker: version + worker id + canonical spec
	frameHelloOK  byte = 2 // worker -> coordinator: version echo
	frameDay      byte = 3 // coordinator -> worker: day index + model bytes (empty = bootstrap)
	frameAssign   byte = 4 // coordinator -> worker: run one shard
	frameResult   byte = 6 // worker -> coordinator: one shard's encoded blob
	frameShutdown byte = 7 // coordinator -> worker: exit cleanly
	frameError    byte = 8 // worker -> coordinator: fatal worker-side error
)

// helloMsg opens a worker connection: protocol version, the worker's slot
// id (for logs), and the canonical spec JSON the worker compiles its trials
// from. The spec is the same bytes the coordinator's checkpoint manifest
// records, so both sides derive every seed from identical inputs.
type helloMsg struct {
	Version, Worker int
	Spec            []byte
}

func (m helloMsg) appendTo(b []byte) []byte {
	return wire.AppendBytes(wire.AppendI32(wire.AppendI32(b, m.Version), m.Worker), m.Spec)
}

func (m *helloMsg) Decode(r *wire.Reader) {
	m.Version, m.Worker, m.Spec = r.I32(), r.I32(), r.Bytes()
}

// helloOKMsg acknowledges the hello with the worker's protocol version.
type helloOKMsg struct{ Version int }

func (m helloOKMsg) appendTo(b []byte) []byte { return wire.AppendI32(b, m.Version) }
func (m *helloOKMsg) Decode(r *wire.Reader)   { m.Version = r.I32() }

// dayMsg broadcasts one day's context: the day index and the deployed
// model's layout (core.TTP.AppendTo). Empty Model means the bootstrap day
// (no model yet), matching the single-process engine's pre-deploy scheme
// set.
type dayMsg struct {
	Day   int
	Model []byte
}

func (m dayMsg) appendTo(b []byte) []byte { return wire.AppendBytes(wire.AppendI32(b, m.Day), m.Model) }
func (m *dayMsg) Decode(r *wire.Reader)   { m.Day, m.Model = r.I32(), r.Bytes() }

// assignMsg hands a worker one shard of the current day. Attempt counts
// prior failed assignments of this shard; the fault-injection hook only
// fires at attempt 0 so a reassigned shard can complete.
type assignMsg struct{ Day, Shard, Attempt int }

func (m assignMsg) appendTo(b []byte) []byte {
	return wire.AppendI32(wire.AppendI32(wire.AppendI32(b, m.Day), m.Shard), m.Attempt)
}

func (m *assignMsg) Decode(r *wire.Reader) { m.Day, m.Shard, m.Attempt = r.I32(), r.I32(), r.I32() }

// resultMsg returns one shard's encoded ShardBlob, echoing the assignment
// so the coordinator can reject stale or misrouted results.
type resultMsg struct {
	assignMsg
	Blob []byte
}

func (m resultMsg) appendTo(b []byte) []byte {
	return wire.AppendBytes(m.assignMsg.appendTo(b), m.Blob)
}
func (m *resultMsg) Decode(r *wire.Reader) { m.assignMsg.Decode(r); m.Blob = r.Bytes() }

// errorMsg reports a fatal worker-side failure (spec compile error, fold
// panic, protocol confusion) before the worker exits.
type errorMsg struct{ Msg string }

func (m errorMsg) appendTo(b []byte) []byte { return wire.AppendStr(b, m.Msg) }
func (m *errorMsg) Decode(r *wire.Reader)   { m.Msg = r.Str() }

// frameName returns a human-readable frame type for error messages.
func frameName(typ byte) string {
	switch typ {
	case frameHello:
		return "hello"
	case frameHelloOK:
		return "hello-ok"
	case frameDay:
		return "day"
	case frameAssign:
		return "assign"
	case frameResult:
		return "result"
	case frameShutdown:
		return "shutdown"
	case frameError:
		return "error"
	}
	return fmt.Sprintf("unknown(%d)", typ)
}

// sendFrame writes one frame and flushes, so a frame is either fully
// visible to the peer or not sent at all from the writer's point of view.
// payload is a message's appendTo(nil), or nil for payload-less frames.
func sendFrame(w *bufio.Writer, typ byte, payload []byte) error {
	if err := wire.WriteFrame(w, typ, payload); err != nil {
		return err
	}
	return w.Flush()
}

// decodePayload decodes a frame's payload, which must hold exactly v's
// layout, into v.
func decodePayload(typ byte, b []byte, v wire.Decoder) error {
	if err := wire.Decode(b, v); err != nil {
		return fmt.Errorf("dist: decoding %s frame: %w", frameName(typ), err)
	}
	return nil
}
