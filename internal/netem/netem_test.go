package netem

import (
	"bytes"
	"encoding/csv"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestTraceRateAtWraps(t *testing.T) {
	tr := &Trace{Interval: 1, Rate: []float64{10, 20, 30}}
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
	tr := &Trace{Interval: 2, Rate: []float64{1, 2}}
	if got := tr.SegmentEnd(0); got != 2 {
		t.Fatalf("SegmentEnd(0) = %v, want 2", got)
	}
	if got := tr.SegmentEnd(3.5); got != 4 {
		t.Fatalf("SegmentEnd(3.5) = %v, want 4", got)
	}
	if got := tr.SegmentEnd(4.0); got != 6 {
		t.Fatalf("SegmentEnd(4.0) = %v, want 6", got)
	}
}

func TestTraceStats(t *testing.T) {
	tr := &Trace{Interval: 1, Rate: []float64{10, 20, 30}}
	if got := tr.Mean(); got != 20 {
		t.Fatalf("Mean = %v, want 20", got)
	}
	if got := tr.Min(); got != 10 {
		t.Fatalf("Min = %v, want 10", got)
	}
	if got := tr.Duration(); got != 3 {
		t.Fatalf("Duration = %v, want 3", got)
	}
}

func TestTraceValidate(t *testing.T) {
	good := &Trace{Interval: 1, Rate: []float64{1, 2}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
	bad := []*Trace{
		{Interval: 0, Rate: []float64{1}},
		{Interval: 1, Rate: nil},
		{Interval: 1, Rate: []float64{-5}},
		{Interval: 1, Rate: []float64{math.NaN()}},
		{Interval: 1, Rate: []float64{math.Inf(1)}},
	}
	for i, tr := range bad {
		if err := tr.Validate(); err == nil {
			t.Errorf("bad trace %d accepted", i)
		}
	}
}

// TestTraceCSVRoundtrip: WriteCSV's output (what cmd/trace-gen publishes)
// parses as CSV back to the trace it was given.
func TestTraceCSVRoundtrip(t *testing.T) {
	tr := &Trace{Interval: 0.5, Rate: []float64{5e6, 5e6, 5e6, 1e6, 5e6}}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(tr.Rate)+1 || strings.Join(rows[0], ",") != "time_s,rate_bps" {
		t.Fatalf("got %d rows with header %v, want %d samples under time_s,rate_bps", len(rows), rows[0], len(tr.Rate))
	}
	for i, row := range rows[1:] {
		at, err1 := strconv.ParseFloat(row[0], 64)
		rate, err2 := strconv.ParseFloat(row[1], 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("row %d does not parse: %v", i, row)
		}
		if want := float64(i) * tr.Interval; at != want {
			t.Fatalf("sample %d at %v s, want %v", i, at, want)
		}
		if math.Abs(rate-tr.Rate[i]) > 0.5 {
			t.Fatalf("sample %d = %v, want %v", i, rate, tr.Rate[i])
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	gen := func(seed int64) []float64 {
		rng := rand.New(rand.NewSource(seed))
		return GenPuffer(rng, DefaultPufferTraceConfig(10e6), 120).Rate
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
		tr := GenPuffer(rng, DefaultPufferTraceConfig(mean), 300)
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
		pufferLow += lowFrac(GenPuffer(rng, DefaultPufferTraceConfig(5e6), 600))
		fccLow += lowFrac(GenFCC(rng, DefaultFCCTraceConfig(5e6), 600))
	}
	pufferLow /= trials
	fccLow /= trials
	if pufferLow <= fccLow+0.005 {
		t.Fatalf("deep-outage fraction: puffer %.4f vs fcc %.4f — want clearly heavier puffer tail", pufferLow, fccLow)
	}
}

func TestGenCS2PHasDiscreteStates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cfg := DefaultCS2PTraceConfig(2.4e6)
	tr := GenCS2P(rng, cfg, 1200)
	// Nearly all samples should sit within a few percent of one of the
	// configured state levels.
	near := 0
	for _, r := range tr.Rate {
		for _, s := range cfg.States {
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
	s := PufferPaths{}
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
	s := FCCPaths{}
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
	for _, s := range []Sampler{PufferPaths{}, FCCPaths{}, CS2PPaths{}} {
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
			if p.Trace.Duration() < 120 {
				t.Fatalf("%s: trace shorter than requested", s.Name())
			}
		}
	}
}

func TestSamplerNames(t *testing.T) {
	if (PufferPaths{}).Name() != "puffer" || (FCCPaths{}).Name() != "fcc" || (CS2PPaths{}).Name() != "cs2p" {
		t.Fatal("sampler names changed; figure code keys off them")
	}
}

func TestClamp(t *testing.T) {
	if clamp(5, 1, 10) != 5 || clamp(-1, 1, 10) != 1 || clamp(99, 1, 10) != 10 {
		t.Fatal("clamp broken")
	}
}
