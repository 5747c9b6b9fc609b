package netem

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTraceRateAtWraps(t *testing.T) {
	tr := &Trace{Rate: []float64{10, 20, 30}}
	cases := []struct {
		t    float64
		want float64
	}{
		{0, 10}, {0.99, 10}, {1, 20}, {2.5, 30},
		{3, 10},  // wrap
		{7, 20},  // wrap twice
		{-1, 10}, // clamped
	}
	for _, c := range cases {
		if got := tr.RateAt(c.t); got != c.want {
			t.Errorf("RateAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestTraceSegmentEnd(t *testing.T) {
	tr := &Trace{Rate: []float64{1, 2}}
	if got := tr.SegmentEnd(0); got != 1 {
		t.Fatalf("SegmentEnd(0) = %v, want 1", got)
	}
	if got := tr.SegmentEnd(3.5); got != 4 {
		t.Fatalf("SegmentEnd(3.5) = %v, want 4", got)
	}
	if got := tr.SegmentEnd(4.0); got != 5 {
		t.Fatalf("SegmentEnd(4.0) = %v, want 5", got)
	}
	if got := tr.SegmentEnd(-1); got != 1 {
		t.Fatalf("SegmentEnd(-1) = %v, want 1", got)
	}
}

func TestTraceStats(t *testing.T) {
	tr := &Trace{Rate: []float64{10, 20, 30}}
	if got := tr.Mean(); got != 20 {
		t.Fatalf("Mean = %v, want 20", got)
	}
}

func TestTraceValidate(t *testing.T) {
	good := &Trace{Rate: []float64{1, 2}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := []*Trace{
		{Rate: nil},
		{Rate: []float64{-5}},
		{Rate: []float64{math.NaN()}},
		{Rate: []float64{math.Inf(1)}},
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("bad trace %d accepted", i)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	gen := func(seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		return GenPuffer(rng, 10e6, 120).Rate
	}
	a, b := gen(1), gen(1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed differs at sample %d", i)
		}
	}
}

func TestGenPufferProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		mean := 1e6 + float64(uint64(seed)%50)*1e6
		tr := GenPuffer(rng, mean, 300)
		if err := tr.Validate(); err != nil {
			return false
		}
		for _, r := range tr.Rate {
			if r < 1e3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGenPufferHasHeavierTailThanFCC(t *testing.T) {
	// The core distributional contrast: the Puffer-like family should
	// show much larger downside deviation (deep outages) than the
	// FCC-like family at matched mean.
	rng := rand.New(rand.NewSource(7))
	lowFrac := func(tr *Trace) float64 {
		mean := tr.Mean()
		n := 0
		for _, r := range tr.Rate {
			if r < 0.15*mean {
				n++
			}
		}
		return float64(n) / float64(len(tr.Rate))
	}
	var pufferLow, fccLow float64
	const trials = 40
	for i := 0; i < trials; i++ {
		pufferLow += lowFrac(GenPuffer(rng, 5e6, 600))
		fccLow += lowFrac(GenFCC(rng, 5e6, 600))
	}
	pufferLow /= trials
	fccLow /= trials
	if pufferLow <= fccLow+0.005 {
		t.Fatalf("deep-outage fraction: puffer %.4f vs fcc %.4f — want clearly heavier puffer tail", pufferLow, fccLow)
	}
}

func TestGenCS2PHasDiscreteStates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := GenCS2P(rng)
	// Nearly all samples should sit within a few percent of one of the
	// configured state levels.
	near := 0
	for _, r := range tr.Rate {
		for _, s := range cs2pStates() {
			if math.Abs(r-s)/s < 0.10 {
				near++
				break
			}
		}
	}
	frac := float64(near) / float64(len(tr.Rate))
	if frac < 0.95 {
		t.Fatalf("only %.2f of CS2P samples near a discrete state", frac)
	}
}

func TestPufferSamplerSlowPathFraction(t *testing.T) {
	// The paper: slow paths (mean < 6 Mbit/s) are a meaningful minority
	// of streams (~20%). Check the sampler is in a plausible band.
	rng := rand.New(rand.NewSource(11))
	s := PufferPaths{MedianRate: 12e6, Sigma: 1.1}
	slow := 0
	const n = 2000
	for i := 0; i < n; i++ {
		p := s.Sample(rng, 60)
		if p.Trace.Mean() < 6e6 {
			slow++
		}
	}
	frac := float64(slow) / n
	if frac < 0.12 || frac > 0.45 {
		t.Fatalf("slow-path fraction = %.3f, want within [0.12, 0.45]", frac)
	}
}

func TestFCCSamplerBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := FCCPaths{MaxRate: 16e6}
	for i := 0; i < 500; i++ {
		p := s.Sample(rng, 60)
		if p.BaseRTT != 0.040 {
			t.Fatalf("FCC path RTT = %v, want the fixed 40 ms shell", p.BaseRTT)
		}
		m := p.Trace.Mean()
		if m < 0.1e6 || m > 40e6 {
			t.Fatalf("FCC session mean %v outside plausible bounds", m)
		}
	}
}

func TestSamplerPathsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, s := range []Sampler{PufferPaths{MedianRate: 12e6, Sigma: 1.1}, FCCPaths{MaxRate: 16e6}} {
		for i := 0; i < 100; i++ {
			p := s.Sample(rng, 120)
			if err := p.Trace.Validate(); err != nil {
				t.Fatalf("%s: invalid trace: %v", s.Name(), err)
			}
			if p.BaseRTT <= 0 || p.BaseRTT > 1 {
				t.Fatalf("%s: implausible RTT %v", s.Name(), p.BaseRTT)
			}
			if p.QueueCapacity <= 0 {
				t.Fatalf("%s: non-positive queue capacity", s.Name())
			}
			if float64(len(p.Trace.Rate))*traceInterval < 120 {
				t.Fatalf("%s: trace shorter than requested", s.Name())
			}
		}
	}
}

func TestSamplerNames(t *testing.T) {
	if (PufferPaths{MedianRate: 12e6, Sigma: 1.1}).Name() != "puffer" || (FCCPaths{MaxRate: 16e6}).Name() != "fcc" {
		t.Fatal("sampler names changed; figure code keys off them")
	}
}

func TestClamp(t *testing.T) {
	if clamp(5, 1, 10) != 5 || clamp(-1, 1, 10) != 1 || clamp(99, 1, 10) != 10 {
		t.Fatal("clamp broken")
	}
}
