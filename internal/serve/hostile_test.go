package serve

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"testing"
	"time"

	"puffer/internal/abr"
	"puffer/internal/media"
	"puffer/internal/obs"
	"puffer/internal/player"
	"puffer/internal/tcpsim"
	"puffer/internal/wire"
)

// goldenDecide is a well-formed Decide as a Puffer client sends it mid-stream:
// a three-chunk horizon over a two-rung ladder.
func goldenDecide() *abr.Observation {
	ladder := func(scale float64) []media.Encoding {
		return []media.Encoding{{Size: 1e6 * scale, SSIMdB: 12.5}, {Size: 4e6 * scale, SSIMdB: 18}}
	}
	return &abr.Observation{
		ChunkIndex:  2,
		Buffer:      3.25,
		LastQuality: 1,
		LastSSIM:    17.5,
		History: []abr.ChunkRecord{
			{Size: 1.5e6, TransTime: 0.75},
			{Size: 2.5e6, TransTime: 1.5},
		},
		TCP:     tcpsim.Info{CWND: 48, InFlight: 12, MinRTT: 0.031, RTT: 0.042, DeliveryRate: 1.25e6},
		Horizon: []media.Chunk{{Versions: ladder(1)}, {Versions: ladder(0.5)}, {Versions: ladder(2)}},
	}
}

// hostileDecides are the well-framed Decides that describe a state no client
// can be in: each decodes without a short read or a trailing byte, and
// checkObservation refuses it before any algorithm behind the server sees
// it.
var hostileDecides = []struct {
	name   string
	mutate func(*abr.Observation)
}{
	{"buffer NaN", func(o *abr.Observation) { o.Buffer = math.NaN() }},
	{"buffer +Inf", func(o *abr.Observation) { o.Buffer = math.Inf(1) }},
	{"buffer negative", func(o *abr.Observation) { o.Buffer = -1 }},
	{"buffer above the cap", func(o *abr.Observation) { o.Buffer = math.Nextafter(player.BufferCap, math.Inf(1)) }},
	{"ragged horizon", func(o *abr.Observation) { o.Horizon[2].Versions = o.Horizon[2].Versions[:1] }},
	{"empty ladder", func(o *abr.Observation) {
		for i := range o.Horizon {
			o.Horizon[i].Versions = nil
		}
	}},
	{"empty horizon", func(o *abr.Observation) { o.Horizon = nil }},
	{"last quality off the ladder", func(o *abr.Observation) { o.LastQuality = 2 }},
}

// TestDecideRejections sends every hostile Decide to a live server, one
// handshaken connection each and one per kind of arm: the reply is an Error
// frame and a close (decodeDecide's errBadObservation), both counters move,
// and the daemon still answers a well-formed Decide afterwards.
func TestDecideRejections(t *testing.T) {
	plan := warmedPlan(t, 0)
	_, ln := startServer(t, Config{Plan: plan, Logf: t.Logf})
	open := func(scheme string) (net.Conn, func() (byte, []byte)) {
		t.Helper()
		c, br := dialRaw(t, ln.Addr().String())
		h := &hello{Version: ProtoVersion, Scheme: scheme, PlanHash: plan.Hash}
		if err := wire.WriteFrame(c, msgHello, encodeHello(nil, h)); err != nil {
			t.Fatal(err)
		}
		read := func() (byte, []byte) {
			t.Helper()
			typ, payload, _, err := wire.ReadFrame(br, nil, maxFrame)
			if err != nil {
				t.Fatalf("%s: %v", scheme, err)
			}
			return typ, payload
		}
		if typ, _ := read(); typ != msgHelloOK {
			t.Fatalf("%s: handshake answered 0x%02x", scheme, typ)
		}
		return c, read
	}

	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	protoErrs, aborted := srvProtoErrors.Value(), srvAbortedTotal.Value()
	sent := int64(0)
	for _, tc := range hostileDecides {
		for _, scheme := range plan.SchemeNames {
			bad := goldenDecide()
			tc.mutate(bad)
			payload := encodeDecide(nil, 1, bad, 0, 0)
			if _, _, _, err := decodeDecide(payload, new(abr.Observation)); !errors.Is(err, errBadObservation) {
				t.Fatalf("%s: decodeDecide says %v, want errBadObservation", tc.name, err)
			}
			c, read := open(scheme)
			if err := wire.WriteFrame(c, msgDecide, payload); err != nil {
				t.Fatal(err)
			}
			sent++
			if typ, _ := read(); typ != msgError {
				t.Fatalf("%s to %s: answered 0x%02x, want msgError", tc.name, scheme, typ)
			}
			if _, err := c.Read(make([]byte, 1)); err != io.EOF {
				t.Fatalf("%s to %s: connection left open (%v)", tc.name, scheme, err)
			}
		}
	}
	if got := srvProtoErrors.Value() - protoErrs; got != sent {
		t.Errorf("serve_proto_errors_total moved by %d for %d rejected Decides", got, sent)
	}
	if got := srvAbortedTotal.Value() - aborted; got != sent {
		t.Errorf("serve_sessions_aborted_total moved by %d for %d rejected Decides", got, sent)
	}

	for _, scheme := range plan.SchemeNames {
		c, read := open(scheme)
		if err := wire.WriteFrame(c, msgDecide, encodeDecide(nil, 1, goldenDecide(), 0, 0)); err != nil {
			t.Fatal(err)
		}
		if typ, _ := read(); typ != msgDecideOK {
			t.Fatalf("%s: well-formed Decide after the hostile ones answered 0x%02x", scheme, typ)
		}
	}
}

// TestOutOfOrderFrames: a Decide before Hello, and a second Hello inside a
// session, are each answered with an Error frame and a close. Both count a
// protocol error; only the second, which had opened a session, counts an
// aborted one.
func TestOutOfOrderFrames(t *testing.T) {
	plan := warmedPlan(t, 0)
	_, ln := startServer(t, Config{Plan: plan, Logf: t.Logf})
	helloFrame := encodeHello(nil, &hello{Version: ProtoVersion, Scheme: plan.SchemeNames[0], PlanHash: plan.Hash})
	send := func(c net.Conn, typ byte, payload []byte) {
		t.Helper()
		if err := wire.WriteFrame(c, typ, payload); err != nil {
			t.Fatal(err)
		}
	}

	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	check := func(name string, wantAborted int64, frames func(net.Conn, *bufio.Reader)) {
		t.Helper()
		protoErrs, aborted := srvProtoErrors.Value(), srvAbortedTotal.Value()
		c, br := dialRaw(t, ln.Addr().String())
		frames(c, br)
		expectError(t, br, name)
		if _, err := br.ReadByte(); err != io.EOF {
			t.Fatalf("%s: connection left open (%v)", name, err)
		}
		if got := srvProtoErrors.Value() - protoErrs; got != 1 {
			t.Errorf("%s: serve_proto_errors_total moved by %d, want 1", name, got)
		}
		if got := srvAbortedTotal.Value() - aborted; got != wantAborted {
			t.Errorf("%s: serve_sessions_aborted_total moved by %d, want %d", name, got, wantAborted)
		}
	}
	check("decide before hello", 0, func(c net.Conn, _ *bufio.Reader) {
		send(c, msgDecide, encodeDecide(nil, 1, goldenDecide(), 0, 0))
	})
	check("second hello", 1, func(c net.Conn, br *bufio.Reader) {
		send(c, msgHello, helloFrame)
		if typ, _, _, err := wire.ReadFrame(br, nil, maxFrame); err != nil || typ != msgHelloOK {
			t.Fatalf("second hello: handshake answered 0x%02x (%v)", typ, err)
		}
		send(c, msgHello, helloFrame)
	})
}

// TestAbortedOnLostReply: a peer that sends a valid Decide and never reads
// the reply ends its session on a failed DecideOK write — at once if it
// closes, after Config.WriteTimeout if it stalls with the connection open.
// That exit counts as aborted exactly once and the active gauge returns to
// zero, so sessions_total - completed - aborted keeps equal to active.
func TestAbortedOnLostReply(t *testing.T) {
	plan := warmedPlan(t, 0)
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	for _, tc := range []struct {
		name         string
		writeTimeout time.Duration // zero keeps the default
		within       time.Duration // the handler must exit this soon after the Decide
		lose         func(peer net.Conn)
	}{
		{"peer closes", 0, 10 * time.Second, func(peer net.Conn) { peer.Close() }},
		{"peer stalls", 50 * time.Millisecond, 50*time.Millisecond + 2*time.Second, func(net.Conn) {}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, err := NewServer(Config{Plan: plan, WriteTimeout: tc.writeTimeout, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(srv.Shutdown)
			aborted := srvAbortedTotal.Value()

			peer, conn := net.Pipe()
			t.Cleanup(func() { peer.Close() })
			srv.connWG.Add(1)
			done := make(chan struct{})
			go func() { srv.handle(conn); close(done) }()

			h := &hello{Version: ProtoVersion, Scheme: plan.SchemeNames[0], PlanHash: plan.Hash}
			if err := wire.WriteFrame(peer, msgHello, encodeHello(nil, h)); err != nil {
				t.Fatal(err)
			}
			if typ, _, _, err := wire.ReadFrame(bufio.NewReader(peer), nil, maxFrame); err != nil || typ != msgHelloOK {
				t.Fatalf("handshake answered 0x%02x (%v)", typ, err)
			}
			if err := wire.WriteFrame(peer, msgDecide, encodeDecide(nil, 1, goldenDecide(), 0, 0)); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			tc.lose(peer)
			select {
			case <-done:
			case <-time.After(tc.within):
				t.Fatalf("handler still running %v after a lost reply", tc.within)
			}
			if took := time.Since(start); took < tc.writeTimeout {
				t.Errorf("handler exited after %v, before the %v write timeout", took, tc.writeTimeout)
			}

			if got := srvAbortedTotal.Value() - aborted; got != 1 {
				t.Errorf("serve_sessions_aborted_total moved by %d for one lost reply, want 1", got)
			}
			if v := srvSessionsActive.Value(); v != 0 {
				t.Errorf("serve_sessions_active = %v after the session ended, want 0", v)
			}
		})
	}
}

// FuzzDecodeDecide: any payload is either refused — a short read, trailing
// bytes or errBadObservation — or decodes to an observation that re-encodes
// to the same bytes and that the planner takes without panicking.
func FuzzDecodeDecide(f *testing.F) {
	// testdata/fuzz/FuzzDecodeDecide holds the rest of the seeds: the golden
	// frame, traced and cut short, and every hostileDecides case.
	f.Add(encodeDecide(nil, 1, goldenDecide(), 0, 0))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var got abr.Observation
		now, traceID, parentSpan, err := decodeDecide(payload, &got)
		if err != nil {
			return
		}
		if again := encodeDecide(nil, now, &got, traceID, parentSpan); !bytes.Equal(again, payload) {
			// A zero trace id with a nonzero parent is the one payload the
			// encoder cannot say: it drops the extension.
			if !(traceID == 0 && len(payload) == len(again)+decideExtLen && bytes.Equal(again, payload[:len(again)])) {
				t.Fatalf("accepted %d bytes that re-encode to %d different ones", len(payload), len(again))
			}
		}
		if q := abr.NewMPCHM().Choose(&got); q < 0 || q >= len(got.Horizon[0].Versions) {
			t.Fatalf("MPC-HM chose rung %d of %d", q, len(got.Horizon[0].Versions))
		}
	})
}

// FuzzDecodeHello: any payload is either refused or decodes to a hello that
// re-encodes to the same bytes.
func FuzzDecodeHello(f *testing.F) {
	f.Add(encodeHello(nil, &hello{Version: ProtoVersion, Scheme: "MPC-HM", PlanHash: "abc123"}))
	f.Fuzz(func(t *testing.T, payload []byte) {
		h, err := decodeHello(payload)
		if err != nil {
			return
		}
		if again := encodeHello(nil, &h); !bytes.Equal(again, payload) {
			t.Fatalf("accepted %d bytes that re-encode to %d different ones", len(payload), len(again))
		}
	})
}
