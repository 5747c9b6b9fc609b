package tcpsim

import (
	"math"
	"math/rand"

	"puffer/internal/netem"
)

// MSS is the segment size used to express cwnd and in-flight in packets,
// matching how tcp_info reports them.
const MSS = 1448.0

// Info mirrors the subset of Linux tcp_info that Puffer records with every
// video_sent measurement and feeds to the TTP.
type Info struct {
	CWND         float64 // congestion window, packets (tcpi_snd_cwnd)
	InFlight     float64 // unacknowledged packets in flight
	MinRTT       float64 // minimum observed RTT, seconds (tcpi_min_rtt)
	RTT          float64 // smoothed RTT estimate, seconds (tcpi_rtt)
	DeliveryRate float64 // recent goodput estimate, bits/s (tcpi_delivery_rate)
}

// Conn is one TCP connection. A Puffer session keeps a single connection
// across channel changes, so a Conn's lifetime is the session's.
// Not safe for concurrent use.
type Conn struct {
	path netem.Path
	rng  *rand.Rand

	now float64 // absolute simulation time, seconds

	minRTT  float64
	srtt    float64
	btlBw   float64 // pacing-gain bandwidth estimate, bytes/s (windowed-max semantics)
	deliv   float64 // most recent delivery-rate sample, bytes/s
	queue   float64 // standing queue at the bottleneck, bytes
	startup bool    // slow-start/startup phase
	noGrow  int     // consecutive rounds without >=25% bandwidth growth
}

// Dial opens a connection over path at absolute time start, charging two
// RTTs of handshake (TCP + TLS, as on Puffer's WebSocket-over-TLS).
func Dial(path netem.Path, rng *rand.Rand, start float64) *Conn {
	if err := path.Trace.Validate(); err != nil {
		panic("tcpsim: " + err.Error())
	}
	base := path.BaseRTT * (1 + 0.05*math.Abs(rng.NormFloat64()))
	c := &Conn{
		path:    path,
		rng:     rng,
		now:     start + 2*base,
		minRTT:  base,
		srtt:    base * 1.1,
		startup: true,
	}
	// After the handshake the kernel has only the initial window's worth
	// of samples: the delivery-rate estimate is IW/RTT — an RTT-driven
	// signal, which is exactly the cold-start information Figure 9 says
	// Fugu exploits.
	c.btlBw = 10 * MSS / c.srtt
	c.deliv = c.btlBw
	return c
}

// Now returns the connection's current absolute time.
func (c *Conn) Now() float64 { return c.now }

// Path returns the path this connection runs over.
func (c *Conn) Path() netem.Path { return c.path }

// Info returns the current tcp_info-equivalent snapshot, with small
// measurement noise on the delivery-rate estimate.
func (c *Conn) Info() Info {
	cwndBytes := c.cwndBytes()
	inFlight := math.Min(cwndBytes, c.deliv*c.srtt+c.queue)
	return Info{
		CWND:         cwndBytes / MSS,
		InFlight:     inFlight / MSS,
		MinRTT:       c.minRTT,
		RTT:          c.srtt,
		DeliveryRate: c.deliv * 8 * math.Exp(0.05*c.rng.NormFloat64()),
	}
}

// cwndBytes is BBR's cwnd: twice the estimated BDP, floored at the initial
// window.
func (c *Conn) cwndBytes() float64 {
	return math.Max(10*MSS, 2*c.btlBw*c.minRTT)
}

// capacityNow returns the bottleneck capacity in bytes/s at the current time.
func (c *Conn) capacityNow() float64 {
	return c.path.Trace.RateAt(c.now) / 8
}

// rttNow returns the instantaneous RTT including queueing delay.
func (c *Conn) rttNow(capBytes float64) float64 {
	if capBytes <= 0 {
		return c.minRTT
	}
	return c.minRTT + c.queue/capBytes
}

// Wait advances the clock without sending (the server pacing chunks when the
// client buffer is full). The bottleneck queue drains while idle.
func (c *Conn) Wait(dt float64) {
	if dt <= 0 {
		return
	}
	capBytes := c.capacityNow()
	c.queue = math.Max(0, c.queue-capBytes*dt)
	c.now += dt
}

// TransferUpTo sends size bytes but gives up after maxDur seconds of
// simulated time (a client that has long since stalled out will abandon).
// It returns the elapsed time and whether the transfer completed.
func (c *Conn) TransferUpTo(size, maxDur float64) (elapsed float64, completed bool) {
	if size <= 0 {
		return 0, true
	}
	start := c.now
	deadline := start + maxDur
	// The last byte arrives one one-way delay after it clears the
	// bottleneck; charge half the base RTT up front.
	owd := c.minRTT / 2
	remaining := size

	for remaining > 0 {
		if c.now >= deadline {
			c.noteDelivery(0.5 * c.deliv) // a struggling sample
			return c.now + owd - start, false
		}
		capBytes := math.Max(c.capacityNow(), 1)
		rtt := c.rttNow(capBytes)
		// One "round": an RTT, clipped to the capacity segment and
		// the deadline.
		dt := rtt
		if segEnd := c.path.Trace.SegmentEnd(c.now); c.now+dt > segEnd {
			dt = segEnd - c.now
		}
		if c.now+dt > deadline {
			dt = deadline - c.now
		}
		if dt < 1e-6 {
			dt = 1e-6
		}

		// Offered rate: pacing-gain times the bandwidth estimate in
		// startup, a gentle probe above it in steady state, capped by
		// the congestion window.
		gain := 1.05
		if c.startup {
			gain = 2.0
		}
		offered := math.Min(gain*c.btlBw, c.cwndBytes()/rtt)

		// Bottleneck dynamics over dt.
		var delivered float64 // bytes/s reaching the client
		qcap := c.path.QueueCapacity * capBytes
		if offered >= capBytes {
			delivered = capBytes
			c.queue = math.Min(qcap, c.queue+(offered-capBytes)*dt)
			if c.queue >= qcap {
				// Buffer full: loss/backoff pins the estimate
				// to the true capacity.
				c.btlBw = capBytes
				c.startup = false
			}
		} else {
			// Sender below capacity: spare capacity drains the
			// queue.
			drain := math.Min(c.queue, (capBytes-offered)*dt)
			c.queue -= drain
			delivered = offered + drain/dt
			if delivered > capBytes {
				delivered = capBytes
			}
		}

		sent := delivered * dt
		if sent >= remaining {
			// Solve the exact finish time within this round.
			c.now += remaining / delivered
			remaining = 0
			c.updateRTT(c.rttNow(capBytes))
			c.noteDelivery(delivered)
			break
		}
		remaining -= sent
		c.now += dt
		c.updateRTT(rtt)
		c.noteDelivery(delivered)
	}
	return c.now + owd - start, true
}

// noteDelivery feeds one delivery-rate sample into the estimators.
func (c *Conn) noteDelivery(rate float64) {
	if rate <= 0 {
		return
	}
	prev := c.btlBw
	if rate > c.btlBw {
		c.btlBw = rate
	} else {
		// Windowed-max expiry: the estimate decays toward reality,
		// giving BBR's characteristic lag after a capacity drop.
		c.btlBw = math.Max(rate, c.btlBw*0.92)
	}
	c.deliv = rate
	if c.startup {
		if c.btlBw < prev*1.25 {
			c.noGrow++
			if c.noGrow >= 3 {
				c.startup = false
			}
		} else {
			c.noGrow = 0
		}
	}
}

// updateRTT folds an RTT sample into the smoothed and minimum estimates.
func (c *Conn) updateRTT(sample float64) {
	c.srtt = 0.875*c.srtt + 0.125*sample
	if sample < c.minRTT {
		c.minRTT = sample
	}
}
