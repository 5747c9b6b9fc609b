package tcpsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"puffer/internal/netem"
)

// Transfer sends size bytes with no deadline and returns the elapsed
// transmission time: the interval from the send decision until the last
// byte reaches the client.
func (c *Conn) Transfer(size float64) float64 {
	elapsed, _ := c.TransferUpTo(size, math.Inf(1))
	return elapsed
}

// constantTrace is an hour of fixed capacity in one-second samples.
func constantTrace(rateBps float64) *netem.Trace {
	tr := &netem.Trace{Interval: 1, Rate: make([]float64, 3600)}
	for i := range tr.Rate {
		tr.Rate[i] = rateBps
	}
	return tr
}

func fixedPath(rateBps, rtt float64) netem.Path {
	return netem.Path{
		Trace:         constantTrace(rateBps),
		BaseRTT:       rtt,
		QueueCapacity: 0.5,
	}
}

func TestDialChargesHandshake(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := Dial(fixedPath(10e6, 0.040), rng, 100)
	if c.Now() <= 100.07 || c.Now() > 100.10 {
		t.Fatalf("post-handshake time = %v, want ~100.08 (two RTTs)", c.Now())
	}
	info := c.Info()
	if info.MinRTT < 0.040 || info.MinRTT > 0.050 {
		t.Fatalf("MinRTT = %v, want near base 40 ms", info.MinRTT)
	}
	if info.CWND < 10 || info.CWND > 25 {
		t.Fatalf("initial CWND = %v packets, want a small initial window", info.CWND)
	}
}

func TestTransferApproachesCapacityForLargeChunks(t *testing.T) {
	// A large transfer on a steady link should achieve close to link rate.
	rng := rand.New(rand.NewSource(2))
	c := Dial(fixedPath(8e6, 0.040), rng, 0)
	warm := 4e6 / 8 // warm up past slow start
	c.Transfer(warm)
	size := 10e6 / 8 * 4.0 // 4 seconds worth at link rate
	elapsed := c.Transfer(size)
	rate := size * 8 / elapsed
	if rate < 0.80*8e6 || rate > 1.05*8e6 {
		t.Fatalf("achieved %v bps on an 8e6 link", rate)
	}
}

func TestSmallChunkBoundedByRTTNotThroughput(t *testing.T) {
	// The size nonlinearity that motivates transmission-time prediction:
	// a tiny chunk's time is dominated by latency, so naive
	// size/throughput extrapolation from it wildly underestimates a big
	// chunk's time.
	rng := rand.New(rand.NewSource(3))
	c := Dial(fixedPath(50e6, 0.100), rng, 0)
	tiny := 5 * MSS
	tTiny := c.Transfer(tiny)
	if tTiny < 0.05 {
		t.Fatalf("tiny chunk finished in %v s, should pay latency ~rtt/2", tTiny)
	}
	impliedTput := tiny * 8 / tTiny
	if impliedTput > 10e6 {
		t.Fatalf("implied throughput %v too close to capacity — latency floor missing", impliedTput)
	}
}

func TestSlowStartRamp(t *testing.T) {
	// Back-to-back equal chunks on a fat link: the first (cold cwnd) must
	// be slower than a later one (warmed up).
	rng := rand.New(rand.NewSource(4))
	c := Dial(fixedPath(40e6, 0.060), rng, 0)
	size := 1.5e6 // bytes
	t1 := c.Transfer(size)
	c.Transfer(size)
	t3 := c.Transfer(size)
	if t1 <= t3 {
		t.Fatalf("first transfer %v not slower than warmed-up transfer %v", t1, t3)
	}
}

func TestDeliveryRateTracksCapacity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := constantTrace(2e6)
	path := netem.Path{Trace: tr, BaseRTT: 0.040, QueueCapacity: 0.5}
	c := Dial(path, rng, 0)
	c.Transfer(3e6 / 8 * 5) // five seconds at capacity
	info := c.Info()
	if info.DeliveryRate < 1.2e6 || info.DeliveryRate > 2.8e6 {
		t.Fatalf("DeliveryRate = %v, want near 2e6", info.DeliveryRate)
	}
}

func TestQueueInflatesRTTBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	path := fixedPath(1e6, 0.040)
	path.QueueCapacity = 1.0 // one second of bufferbloat max
	c := Dial(path, rng, 0)
	c.Transfer(2e6) // 16 seconds at capacity — plenty to fill the queue
	info := c.Info()
	if info.RTT <= 0.040 {
		t.Fatal("sustained overload should inflate smoothed RTT above base")
	}
	if info.RTT > 0.040+1.2 {
		t.Fatalf("RTT %v exceeds base+queue bound", info.RTT)
	}
	if info.MinRTT > 0.050 {
		t.Fatalf("MinRTT %v should stay near propagation delay", info.MinRTT)
	}
}

func TestWaitDrainsQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := Dial(fixedPath(1e6, 0.040), rng, 0)
	c.Transfer(1e6)
	before := c.Info().RTT
	c.Wait(10)
	c.Transfer(2 * MSS) // one fresh RTT sample after drain
	after := c.Info().RTT
	if after >= before && before > 0.05 {
		t.Fatalf("idle did not drain queue: rtt %v -> %v", before, after)
	}
	c.Wait(-5) // must be a no-op
}

func TestTransferUpToDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := Dial(fixedPath(0.1e6, 0.040), rng, 0) // 100 kbps: 1 MB takes ~80 s
	elapsed, completed := c.TransferUpTo(1e6, 5)
	if completed {
		t.Fatal("transfer should not complete within 5 s")
	}
	if elapsed < 4.9 || elapsed > 6 {
		t.Fatalf("elapsed = %v, want about the 5 s deadline", elapsed)
	}
	// Completing case.
	elapsed2, completed2 := c.TransferUpTo(1000, 60)
	if !completed2 {
		t.Fatalf("small transfer should complete, elapsed %v", elapsed2)
	}
}

func TestTransferZeroSize(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := Dial(fixedPath(1e6, 0.040), rng, 0)
	if got := c.Transfer(0); got != 0 {
		t.Fatalf("Transfer(0) = %v, want 0", got)
	}
}

func TestClockMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sampler := netem.PufferPaths{}
		path := sampler.Sample(rng, 300)
		c := Dial(path, rng, 0)
		prev := c.Now()
		for i := 0; i < 30; i++ {
			size := 1e4 + rng.Float64()*2e6
			elapsed := c.Transfer(size)
			if elapsed <= 0 || math.IsNaN(elapsed) || math.IsInf(elapsed, 0) {
				return false
			}
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
			c.Wait(rng.Float64())
			if c.Now() < prev {
				return false
			}
			prev = c.Now()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestInfoSane(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		path := (netem.PufferPaths{}).Sample(rng, 120)
		c := Dial(path, rng, 0)
		for i := 0; i < 10; i++ {
			c.Transfer(1e5 + rng.Float64()*1e6)
			info := c.Info()
			if info.CWND < 10 || math.IsNaN(info.CWND) {
				return false
			}
			if info.InFlight < 0 || info.InFlight > info.CWND+1e-9 {
				return false
			}
			if info.MinRTT <= 0 || info.RTT < info.MinRTT*0.8 {
				return false
			}
			if info.DeliveryRate <= 0 || math.IsInf(info.DeliveryRate, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityDropSlowsTransfers(t *testing.T) {
	// Step trace: 8 Mbps for 30 s then 0.5 Mbps. Transfers after the
	// drop must take far longer for the same size.
	rate := make([]float64, 120)
	for i := range rate {
		if i < 30 {
			rate[i] = 8e6
		} else {
			rate[i] = 0.5e6
		}
	}
	path := netem.Path{Trace: &netem.Trace{Interval: 1, Rate: rate}, BaseRTT: 0.040, QueueCapacity: 0.5}
	rng := rand.New(rand.NewSource(10))
	c := Dial(path, rng, 0)
	size := 0.5e6
	fast := c.Transfer(size)
	for c.Now() < 35 {
		c.Wait(1)
	}
	slow := c.Transfer(size)
	if slow < 3*fast {
		t.Fatalf("post-drop transfer %v not much slower than pre-drop %v", slow, fast)
	}
}

func TestColdStartInfoReflectsRTT(t *testing.T) {
	// Figure 9's mechanism: on a fresh connection, delivery-rate estimate
	// is IW/RTT, so low-RTT paths look faster before any data flows.
	rng1 := rand.New(rand.NewSource(11))
	rng2 := rand.New(rand.NewSource(11))
	fast := Dial(fixedPath(50e6, 0.010), rng1, 0)
	far := Dial(fixedPath(50e6, 0.200), rng2, 0)
	if fast.Info().DeliveryRate <= far.Info().DeliveryRate {
		t.Fatal("cold-start delivery rate should be higher on the low-RTT path")
	}
}

func TestDialPanicsOnInvalidTrace(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for invalid trace")
		}
	}()
	Dial(netem.Path{Trace: &netem.Trace{Interval: 0, Rate: nil}}, rand.New(rand.NewSource(1)), 0)
}

func BenchmarkTransferTwoSecondChunk(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	path := (netem.PufferPaths{}).Sample(rng, 1e7)
	c := Dial(path, rng, 0)
	size := path.Trace.Mean() / 8 * 1.6 // ~80% utilization chunk
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Transfer(size)
	}
}
