package dist

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"

	"puffer/internal/wire"
)

// ProtocolVersion is the coordinator/worker wire protocol version. The
// coordinator sends it in the hello frame and the worker echoes it back;
// any mismatch aborts the handshake loudly instead of risking a silent
// wrong merge.
const ProtocolVersion = 1

// maxFrame bounds a single frame's length (wire.ReadFrame's max). A day's
// model is a few MB and a shard blob tens of MB at paper scale; 256 MiB
// leaves ample headroom.
const maxFrame = 256 << 20

// Frame types. Every frame is a wire frame whose payload is the gob-encoded
// payload struct (empty for claim/shutdown).
const (
	frameHello    byte = 1 // coordinator -> worker: version + worker id + canonical spec
	frameHelloOK  byte = 2 // worker -> coordinator: version echo
	frameDay      byte = 3 // coordinator -> worker: day index + model bytes (empty = bootstrap)
	frameAssign   byte = 4 // coordinator -> worker: run one shard
	frameClaim    byte = 5 // worker -> coordinator: ready for the next shard
	frameResult   byte = 6 // worker -> coordinator: one shard's encoded blob
	frameShutdown byte = 7 // coordinator -> worker: exit cleanly
	frameError    byte = 8 // worker -> coordinator: fatal worker-side error
)

// helloMsg opens a worker connection: protocol version, the worker's slot
// id (for logs), and the canonical spec JSON the worker compiles its trials
// from. The spec is the same bytes the coordinator's checkpoint manifest
// records, so both sides derive every seed from identical inputs.
type helloMsg struct {
	Version int
	Worker  int
	Spec    []byte
}

// helloOKMsg acknowledges the hello with the worker's protocol version.
type helloOKMsg struct {
	Version int
}

// dayMsg broadcasts one day's context: the day index and the deployed
// model's gob bytes. Empty Model means the bootstrap day (no model yet),
// matching the single-process engine's pre-deploy scheme set.
type dayMsg struct {
	Day   int
	Model []byte
}

// assignMsg hands a worker one shard of the current day. Attempt counts
// prior failed assignments of this shard; the fault-injection hook only
// fires at attempt 0 so a reassigned shard can complete.
type assignMsg struct {
	Day     int
	Shard   int
	Attempt int
}

// resultMsg returns one shard's encoded ShardBlob, echoing the assignment
// coordinates so the coordinator can reject stale or misrouted results.
type resultMsg struct {
	Day     int
	Shard   int
	Attempt int
	Blob    []byte
}

// errorMsg reports a fatal worker-side failure (spec compile error, fold
// panic, protocol confusion) before the worker exits.
type errorMsg struct {
	Msg string
}

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
	case frameClaim:
		return "claim"
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
// payload may be nil for payload-less frames.
func sendFrame(w *bufio.Writer, typ byte, payload any) error {
	var buf bytes.Buffer
	if payload != nil {
		if err := gob.NewEncoder(&buf).Encode(payload); err != nil {
			return fmt.Errorf("dist: encoding %s frame: %w", frameName(typ), err)
		}
	}
	if err := wire.WriteFrame(w, typ, buf.Bytes()); err != nil {
		return err
	}
	return w.Flush()
}

// decodePayload decodes a frame's gob payload into v.
func decodePayload(typ byte, b []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(v); err != nil {
		return fmt.Errorf("dist: decoding %s frame: %w", frameName(typ), err)
	}
	return nil
}
