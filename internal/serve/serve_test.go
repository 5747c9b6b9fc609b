package serve

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"puffer/internal/abr"
	"puffer/internal/media"
	"puffer/internal/scenario"
	"puffer/internal/tcpsim"
	"puffer/internal/wire"
)

// tinySpec is a fast two-day scenario: big enough to exercise every arm,
// small enough that warming day 1 (one trial + one training epoch) stays
// cheap on one core.
func tinySpec() scenario.Spec {
	var s scenario.Spec
	s.Daily.Days = 2
	s.Daily.Sessions = 24
	s.Train.Epochs = 1
	seed := int64(7)
	s.Seed = &seed
	s.ShardSize = 8
	return s
}

func warmedPlan(t *testing.T, day int) *Plan {
	t.Helper()
	p, err := NewPlan(tinySpec(), day)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Warm(0, t.Logf); err != nil {
		t.Fatal(err)
	}
	return p
}

func clientPlan(t *testing.T, day int) *Plan {
	t.Helper()
	p, err := NewPlan(tinySpec(), day)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func startServer(t *testing.T, cfg Config) (*Server, net.Listener) {
	t.Helper()
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Shutdown)
	return srv, ln
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, msgHello, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	typ, payload, _, err := wire.ReadFrame(&buf, nil, maxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if typ != msgHello || !bytes.Equal(payload, []byte{1, 2, 3}) {
		t.Fatalf("round trip got type 0x%02x payload %v", typ, payload)
	}

	// Oversized frame length must be rejected, not allocated.
	bad := []byte{0xff, 0xff, 0xff, 0xff, 0x00}
	if _, _, _, err := wire.ReadFrame(bytes.NewReader(bad), nil, maxFrame); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	in := hello{Version: ProtoVersion, Day: 3, Session: 41, Seed: -12345,
		Scheme: "Fugu", PlanHash: "abc:day3"}
	out, err := decodeHello(encodeHello(nil, &in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("hello round trip: got %+v want %+v", out, in)
	}

	// A string longer than its u16 length can say travels as its longest
	// sayable prefix; the length must not wrap and leave trailing bytes.
	long := strings.Repeat("x", 70000)
	rd := wire.NewReader(wire.AppendStr(nil, long))
	if got := rd.Str(); got != long[:65535] {
		t.Fatalf("70000-byte string decoded as %d bytes, want its 65535-byte prefix", len(got))
	}
	if err := rd.Done(); err != nil {
		t.Fatalf("70000-byte string left the frame malformed: %v", err)
	}
}

// TestHelloFrameGolden pins the bytes of one Hello frame: the framing and
// payload codec as internal/wire writes them, at protocol version 3.
func TestHelloFrameGolden(t *testing.T) {
	const want = "000000230100030000000300000007ffffffffffffffd600044675677500066162633132330001"
	var buf bytes.Buffer
	h := &hello{Version: ProtoVersion, Day: 3, Session: 7, Seed: -42,
		Scheme: "Fugu", PlanHash: "abc123", Flags: helloFlagTracing}
	if err := wire.WriteFrame(&buf, msgHello, encodeHello(nil, h)); err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("Hello frame bytes changed:\n got %s\nwant %s", got, want)
	}
}

func TestDecideRoundTrip(t *testing.T) {
	obs := abr.Observation{
		ChunkIndex:  17,
		Buffer:      3.25,
		LastQuality: 1,
		LastSSIM:    0.9812,
		History: []abr.ChunkRecord{
			{Size: 1.5e6, TransTime: 0.75, SSIMdB: 14.25, Quality: 3},
			{Size: 2.5e6, TransTime: 1.5, SSIMdB: 17.5, Quality: 5},
		},
		TCP: tcpsim.Info{CWND: 48, InFlight: 12, MinRTT: 0.031, RTT: 0.042, DeliveryRate: 1.25e6},
		Horizon: []media.Chunk{
			{Index: 18, Complexity: 1.125, Versions: []media.Encoding{{Size: 1e6, SSIMdB: 12.5}, {Size: 4e6, SSIMdB: 18}}},
			{Index: 19, Complexity: 0.875, Versions: []media.Encoding{{Size: 2e6, SSIMdB: 15.5}, {Size: 5e6, SSIMdB: 19}}},
		},
	}
	payload := encodeDecide(nil, 123.4375, &obs, 0, 0)
	var got abr.Observation
	now, _, _, err := decodeDecide(payload, &got)
	if err != nil {
		t.Fatal(err)
	}
	if now != 123.4375 {
		t.Fatalf("now: got %v", now)
	}
	if !reflect.DeepEqual(got, obs) {
		t.Fatalf("observation round trip:\n got %+v\nwant %+v", got, obs)
	}

	// Decoding a smaller observation into the same struct must reuse the
	// buffers without leaking stale entries.
	small := abr.Observation{
		Horizon: []media.Chunk{{Index: 20, Complexity: 1, Versions: []media.Encoding{{Size: 5, SSIMdB: 6}}}},
		TCP:     tcpsim.Info{RTT: 0.05},
	}
	payload = encodeDecide(payload[:0], 1, &small, 0, 0)
	if _, _, _, err := decodeDecide(payload, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.History) == 0 {
		got.History = nil // reuse leaves an empty slice; algorithms only see len
	}
	if !reflect.DeepEqual(got, small) {
		t.Fatalf("reused decode:\n got %+v\nwant %+v", got, small)
	}

	// Trailing bytes are a protocol error.
	payload = encodeDecide(payload[:0], 1, &small, 0, 0)
	if _, _, _, err := decodeDecide(append(payload, 0), &got); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestDecideTraceExtension(t *testing.T) {
	obs := abr.Observation{
		Horizon: []media.Chunk{{Index: 20, Complexity: 1, Versions: []media.Encoding{{Size: 5, SSIMdB: 6}}}},
		TCP:     tcpsim.Info{RTT: 0.05},
	}
	var got abr.Observation

	// traceID 0 emits no extension bytes.
	bare := encodeDecide(nil, 1, &obs, 0, 0)
	ext := encodeDecide(nil, 1, &obs, 0xdeadbeef, 42)
	if len(ext) != len(bare)+decideExtLen {
		t.Fatalf("extension adds %d bytes, want %d", len(ext)-len(bare), decideExtLen)
	}
	if !bytes.Equal(ext[:len(bare)], bare) {
		t.Fatal("trace extension changed the observation encoding")
	}

	now, trace, parent, err := decodeDecide(ext, &got)
	if err != nil {
		t.Fatal(err)
	}
	if now != 1 || trace != 0xdeadbeef || parent != 42 {
		t.Fatalf("ext round trip: now=%v trace=%#x parent=%d", now, trace, parent)
	}
	// A frame with no extension decodes as untraced.
	if _, trace, parent, err := decodeDecide(bare, &got); err != nil || trace != 0 || parent != 0 {
		t.Fatalf("bare frame: trace=%d parent=%d err=%v", trace, parent, err)
	}
	// A partial extension is a frame error.
	if _, _, _, err := decodeDecide(ext[:len(ext)-1], &got); err == nil {
		t.Fatal("truncated trace extension accepted")
	}
}

// TestHelloVersionCompat: the one protocol version's Hello, flags
// included, round-trips (the server refuses every other version: see
// TestHandshakeRejections).
func TestHelloVersionCompat(t *testing.T) {
	in := hello{Version: ProtoVersion, Day: 3, Session: 41, Seed: -12345,
		Scheme: "Fugu", PlanHash: "abc:day3", Flags: helloFlagTracing}
	out, err := decodeHello(encodeHello(nil, &in))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("v%d hello round trip: got %+v want %+v", ProtoVersion, out, in)
	}
}

// runDifferential pins the tentpole guarantee: the same plan served over
// real sockets and run on the virtual-time engine produces byte-identical
// per-scheme stats.
func runDifferential(t *testing.T, day int, mutate func(*Config)) {
	t.Helper()
	plan := warmedPlan(t, day)
	want, _, err := RunVirtual(plan, 0)
	if err != nil {
		t.Fatal(err)
	}

	cfg := Config{Plan: plan, Logf: t.Logf}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, ln := startServer(t, cfg)

	res, err := RunLoad(LoadConfig{
		Addr: ln.Addr().String(), Plan: clientPlan(t, day), Concurrency: 8, Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.ModelViolations != 0 {
		t.Fatalf("load run: %d failed sessions, %d model violations", res.Failed, res.ModelViolations)
	}
	if !reflect.DeepEqual(res.Stats, want) {
		t.Fatalf("served stats diverge from the virtual twin:\n got %+v\nwant %+v", res.Stats, want)
	}

	srv.Shutdown()
	nsess, completed, decisions := srv.Summary()
	if int(nsess) != plan.Sessions || int(completed) != plan.Sessions {
		t.Fatalf("server saw %d sessions, %d completed; want %d of each", nsess, completed, plan.Sessions)
	}
	if int64(decisions) != res.Decisions {
		t.Fatalf("server counted %d decisions, client %d", decisions, res.Decisions)
	}
}

func TestDifferentialDay0(t *testing.T) { runDifferential(t, 0, nil) }

func TestDifferentialDay1(t *testing.T) { runDifferential(t, 1, nil) }

// TestDifferentialTinyQueue forces backpressure: with a one-deep queue and
// one-request batches every concurrent enqueue blocks, and results must
// still be exact.
func TestDifferentialTinyQueue(t *testing.T) {
	runDifferential(t, 0, func(cfg *Config) {
		cfg.QueueDepth = 1
		cfg.MaxBatch = 1
	})
}

// TestRotationDuringLoad churns model generations mid-run. Rotation
// publishes a bit-identical clone, so results must not move; the client
// verifies no session ever saw two generations.
func TestRotationDuringLoad(t *testing.T) {
	plan := warmedPlan(t, 1)
	want, _, err := RunVirtual(plan, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv, ln := startServer(t, Config{Plan: plan, Logf: t.Logf})

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(2 * time.Millisecond):
				srv.Rotate()
			}
		}
	}()
	res, err := RunLoad(LoadConfig{
		Addr: ln.Addr().String(), Plan: clientPlan(t, 1), Concurrency: 8, Logf: t.Logf,
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d sessions failed under rotation churn", res.Failed)
	}
	if res.ModelViolations != 0 {
		t.Fatalf("%d sessions saw more than one model generation", res.ModelViolations)
	}
	if !reflect.DeepEqual(res.Stats, want) {
		t.Fatal("rotation churn changed results")
	}
}

// dialRaw opens a raw protocol connection for handshake tests.
func dialRaw(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c, bufio.NewReader(c)
}

func expectError(t *testing.T, br *bufio.Reader, what string) string {
	t.Helper()
	typ, payload, _, err := wire.ReadFrame(br, nil, maxFrame)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if typ != msgError {
		t.Fatalf("%s: got type 0x%02x, want msgError", what, typ)
	}
	rd := wire.NewReader(payload)
	msg := rd.Str()
	if err := rd.Done(); err != nil {
		t.Fatalf("%s: Error frame is not exactly one string: %v", what, err)
	}
	return msg
}

func TestHandshakeRejections(t *testing.T) {
	plan := warmedPlan(t, 0)
	_, ln := startServer(t, Config{Plan: plan, Logf: t.Logf})
	addr := ln.Addr().String()

	send := func(c net.Conn, h *hello) {
		t.Helper()
		if err := wire.WriteFrame(c, msgHello, encodeHello(nil, h)); err != nil {
			t.Fatal(err)
		}
	}

	for _, v := range []uint16{ProtoVersion - 1, ProtoVersion + 1} {
		c, br := dialRaw(t, addr)
		send(c, &hello{Version: v, Scheme: plan.SchemeNames[0], PlanHash: plan.Hash})
		if msg := expectError(t, br, "bad version"); !strings.Contains(msg, "protocol version") {
			t.Fatalf("version %d: error %q does not name the version", v, msg)
		}
	}

	c, br := dialRaw(t, addr)
	send(c, &hello{Version: ProtoVersion, Scheme: plan.SchemeNames[0], PlanHash: "someone-else:day9"})
	if msg := expectError(t, br, "plan mismatch"); msg == "" {
		t.Fatal("empty error message")
	}

	c, br = dialRaw(t, addr)
	send(c, &hello{Version: ProtoVersion, Scheme: "NotAScheme", PlanHash: plan.Hash})
	if msg := expectError(t, br, "unknown scheme"); msg == "" {
		t.Fatal("empty error message")
	}

	// A Hello quoted back in the Error message must not push it past what
	// the string's u16 length can say.
	c, br = dialRaw(t, addr)
	send(c, &hello{Version: ProtoVersion, Scheme: plan.SchemeNames[0], PlanHash: strings.Repeat("h", 65535)})
	if msg := expectError(t, br, "oversized plan hash"); len(msg) != 65535 {
		t.Fatalf("oversized plan hash: %d-byte message, want it truncated to 65535", len(msg))
	}

	// A non-Hello first frame is rejected too.
	c, br = dialRaw(t, addr)
	if err := wire.WriteFrame(c, msgDecide, nil); err != nil {
		t.Fatal(err)
	}
	expectError(t, br, "decide before hello")

	// A client that connects and says nothing is closed once the handshake
	// bound (the shorter of ReadTimeout and handshakeTimeout) has passed.
	const bound = 200 * time.Millisecond
	_, ln = startServer(t, Config{Plan: plan, ReadTimeout: bound, Logf: t.Logf})
	c, _ = dialRaw(t, ln.Addr().String())
	start := time.Now()
	c.SetReadDeadline(start.Add(10 * bound))
	if _, err := c.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("silent connection: read returned %v after %v, want a server-side close (EOF) within %v",
			err, time.Since(start), bound)
	}
}

// TestShutdownDrains pins the drain contract: Shutdown evicts an idle
// connection (parked between frames) promptly and completes.
func TestShutdownDrains(t *testing.T) {
	plan := warmedPlan(t, 0)
	srv, ln := startServer(t, Config{Plan: plan, DrainTimeout: 2 * time.Second, Logf: t.Logf})

	c, br := dialRaw(t, ln.Addr().String())
	if err := wire.WriteFrame(c, msgHello, encodeHello(nil, &hello{
		Version: ProtoVersion, Scheme: plan.SchemeNames[0], PlanHash: plan.Hash,
	})); err != nil {
		t.Fatal(err)
	}
	typ, _, _, err := wire.ReadFrame(br, nil, maxFrame)
	if err != nil || typ != msgHelloOK {
		t.Fatalf("handshake: type 0x%02x err %v", typ, err)
	}

	done := make(chan struct{})
	go func() { srv.Shutdown(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not drain an idle connection")
	}

	// New connections are refused after drain.
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after Shutdown")
	}
}

// TestShutdownBeforeServe pins the other ordering: a Shutdown that ran
// before Serve registered its listener never saw it, so Serve must notice,
// close the listener itself and return nil instead of accepting forever.
func TestShutdownBeforeServe(t *testing.T) {
	srv, err := NewServer(Config{Plan: warmedPlan(t, 0), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	srv.Shutdown()

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve after Shutdown = %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve kept accepting after an earlier Shutdown")
	}
	if _, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second); err == nil {
		t.Fatal("listener still accepting after Serve returned")
	}
}

// emfileListener fails its first Accept with EMFILE, the error a process
// out of file descriptors gets, then accepts normally.
type emfileListener struct {
	net.Listener
	failed atomic.Bool
}

func (l *emfileListener) Accept() (net.Conn, error) {
	if l.failed.CompareAndSwap(false, true) {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Addr: l.Addr(), Err: os.NewSyscallError("accept", syscall.EMFILE)}
	}
	return l.Listener.Accept()
}

// TestServeRetriesTemporaryAcceptError: an accept that fails for want of a
// file descriptor is logged and retried, so the server still takes the
// next session and drains cleanly; it must not return from Serve.
func TestServeRetriesTemporaryAcceptError(t *testing.T) {
	plan := warmedPlan(t, 0)
	var mu sync.Mutex
	var logs []string
	srv, err := NewServer(Config{Plan: plan, Logf: func(format string, args ...any) {
		mu.Lock()
		logs = append(logs, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(&emfileListener{Listener: ln}) }()
	defer srv.Shutdown()

	c, br := dialRaw(t, ln.Addr().String())
	c.SetDeadline(time.Now().Add(5 * time.Second))
	if err := wire.WriteFrame(c, msgHello, encodeHello(nil, &hello{
		Version: ProtoVersion, Scheme: plan.SchemeNames[0], PlanHash: plan.Hash,
	})); err != nil {
		t.Fatal(err)
	}
	if typ, _, _, err := wire.ReadFrame(br, nil, maxFrame); err != nil || typ != msgHelloOK {
		select {
		case err := <-done:
			t.Fatalf("Serve returned %v on a temporary accept error", err)
		default:
			t.Fatalf("handshake after a temporary accept error: type 0x%02x err %v", typ, err)
		}
	}
	mu.Lock()
	retried := len(logs) > 0 && strings.Contains(logs[0], "too many open files") && strings.Contains(logs[0], "retrying")
	mu.Unlock()
	if !retried {
		t.Fatalf("the retry was not logged: %q", logs)
	}
	srv.Shutdown()
	if err := <-done; err != nil {
		t.Fatalf("Serve after Shutdown = %v, want nil", err)
	}
}

// TestPeakConcurrentIsAMaximum: raisers racing on one high-water mark
// never lower it, and leave the largest value any of them offered. Each
// offer is the next value of a shared counter, so offers race in close
// succession; an observer checks the mark never moves down meanwhile. Run
// it under -race too. A load-then-store maximum fails here when a lower
// store lands after a higher one.
func TestPeakConcurrentIsAMaximum(t *testing.T) {
	const workers, each = 4, 50000
	var next, peak atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				raiseTo(&peak, next.Add(1))
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for last := int64(0); ; {
		select {
		case <-done:
			if got := peak.Load(); got != workers*each {
				t.Fatalf("peak %d, want %d", got, workers*each)
			}
			return
		default:
		}
		v := peak.Load()
		if v < last {
			t.Fatalf("peak fell from %d to %d", last, v)
		}
		last = v
	}
}
