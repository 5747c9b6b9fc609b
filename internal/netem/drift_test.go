package netem

import (
	"math"
	"math/rand"
	"testing"
)

// samplePathBytes reduces a path to comparable values.
func pathsEqual(a, b Path) bool {
	if a.BaseRTT != b.BaseRTT || a.QueueCapacity != b.QueueCapacity || len(a.Trace.Rate) != len(b.Trace.Rate) {
		return false
	}
	for i := range a.Trace.Rate {
		if a.Trace.Rate[i] != b.Trace.Rate[i] {
			return false
		}
	}
	return true
}

func presets(t *testing.T) map[string]DriftSchedule {
	t.Helper()
	out := map[string]DriftSchedule{}
	for _, name := range []string{"none", "decay", "shift", "mix"} {
		s, err := DriftPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = s
	}
	return out
}

// TestDriftingSamplerDeterministic: same (seed, day) must give byte-identical
// paths, for every preset — the determinism contract the daily loop's
// kill-and-resume relies on.
func TestDriftingSamplerDeterministic(t *testing.T) {
	for name, sched := range presets(t) {
		ds := &DriftingSampler{Base: PufferPaths{MedianRate: 12e6, Sigma: 1.1}, Schedule: sched}
		for day := 0; day < 5; day++ {
			a := ds.SampleDay(rand.New(rand.NewSource(99)), 300, day)
			b := ds.SampleDay(rand.New(rand.NewSource(99)), 300, day)
			if !pathsEqual(a, b) {
				t.Fatalf("preset %s day %d: same seed produced different paths", name, day)
			}
		}
	}
}

// TestDriftingSamplerZeroScheduleIdentity: an all-zero schedule must be
// draw-for-draw identical to the base sampler on every day (this is what
// makes `-drift none` byte-identical to an unwrapped run).
func TestDriftingSamplerZeroScheduleIdentity(t *testing.T) {
	ds := &DriftingSampler{Base: PufferPaths{MedianRate: 12e6, Sigma: 1.1}}
	for day := 0; day < 4; day++ {
		got := ds.SampleDay(rand.New(rand.NewSource(7)), 240, day)
		want := PufferPaths{MedianRate: 12e6, Sigma: 1.1}.Sample(rand.New(rand.NewSource(7)), 240)
		if !pathsEqual(got, want) {
			t.Fatalf("zero schedule day %d differs from base sampler", day)
		}
	}
	if !(&DriftSchedule{}).IsZero() {
		t.Fatal("zero DriftSchedule must report IsZero")
	}
	if (&DriftSchedule{RateFactorPerDay: 1}).IsZero() != true {
		t.Fatal("RateFactorPerDay=1 is no drift")
	}
	if (&DriftSchedule{RateFactorPerDay: 0.9}).IsZero() {
		t.Fatal("decaying schedule must not report IsZero")
	}
}

// TestDriftingSamplerDayZeroUndrifted: per-day knobs are inactive on day 0,
// so day 0 always reproduces the base family exactly.
func TestDriftingSamplerDayZeroUndrifted(t *testing.T) {
	for _, name := range []string{"decay", "shift"} {
		sched, err := DriftPreset(name)
		if err != nil {
			t.Fatal(err)
		}
		ds := &DriftingSampler{Base: PufferPaths{MedianRate: 12e6, Sigma: 1.1}, Schedule: sched}
		got := ds.SampleDay(rand.New(rand.NewSource(3)), 240, 0)
		want := PufferPaths{MedianRate: 12e6, Sigma: 1.1}.Sample(rand.New(rand.NewSource(3)), 240)
		if !pathsEqual(got, want) {
			t.Fatalf("preset %s: day 0 differs from the base family", name)
		}
	}
}

// meanCapacity estimates the population mean session capacity on a day.
func meanCapacity(ds *DriftingSampler, seed int64, day, n int) float64 {
	rng := rand.New(rand.NewSource(seed))
	var sum float64
	for i := 0; i < n; i++ {
		sum += ds.SampleDay(rng, 120, day).Trace.Mean()
	}
	return sum / float64(n)
}

// slowFraction estimates the slow-path (mean < 6 Mbit/s) share on a day.
func slowFraction(ds *DriftingSampler, seed int64, day, n int) float64 {
	rng := rand.New(rand.NewSource(seed))
	slow := 0
	for i := 0; i < n; i++ {
		if ds.SampleDay(rng, 120, day).Trace.Mean() < 6e6 {
			slow++
		}
	}
	return float64(slow) / float64(n)
}

func TestDriftDecayShrinksCapacity(t *testing.T) {
	sched, _ := DriftPreset("decay")
	ds := &DriftingSampler{Base: PufferPaths{MedianRate: 12e6, Sigma: 1.1}, Schedule: sched}
	const n = 400
	prev := meanCapacity(ds, 5, 0, n)
	for day := 2; day <= 6; day += 2 {
		cur := meanCapacity(ds, 5, day, n)
		if cur >= prev*0.95 {
			t.Fatalf("day %d mean capacity %.0f not clearly below day %d's %.0f", day, cur, day-2, prev)
		}
		prev = cur
	}
}

func TestDriftShiftGrowsSlowShare(t *testing.T) {
	sched, _ := DriftPreset("shift")
	ds := &DriftingSampler{Base: PufferPaths{MedianRate: 12e6, Sigma: 1.1}, Schedule: sched}
	const n = 600
	day0 := slowFraction(ds, 9, 0, n)
	day1 := slowFraction(ds, 9, 1, n)
	day2 := slowFraction(ds, 9, 2, n)
	if !(day0 < day1 && day1 < day2) {
		t.Fatalf("slow share not growing: day0 %.3f day1 %.3f day2 %.3f", day0, day1, day2)
	}
	// The extra share caps at +90 points: from day 3 on, nearly every
	// session is slow.
	if day3 := slowFraction(ds, 9, 3, n); day3 < 0.8 {
		t.Fatalf("day 3 slow share %.3f, want most sessions slow under the shift preset", day3)
	}
}

func TestDriftMixMigratesPopulation(t *testing.T) {
	sched, _ := DriftPreset("mix")
	ds := &DriftingSampler{Base: PufferPaths{MedianRate: 12e6, Sigma: 1.1}, Schedule: sched}
	if w := sched.MixWeight(0); w != 0 {
		t.Fatalf("mix weight at ramp start = %v, want 0", w)
	}
	if w := sched.MixWeight(1); math.Abs(w-1.0/3) > 1e-9 {
		t.Fatalf("mix weight on day 1 = %v, want 1/3", w)
	}
	if w := sched.MixWeight(3); w != 1 {
		t.Fatalf("mix weight at ramp end = %v, want 1", w)
	}
	if w := sched.MixWeight(20); w != 1 {
		t.Fatalf("mix weight past ramp = %v, want 1", w)
	}
	const n = 400
	day0 := meanCapacity(ds, 13, 0, n)
	day3 := meanCapacity(ds, 13, 3, n)
	if day3 > day0/2 {
		t.Fatalf("population did not migrate to the congested family: day0 %.0f vs day3 %.0f", day0, day3)
	}
}

func TestDriftOutageOverlay(t *testing.T) {
	ds := &DriftingSampler{Base: PufferPaths{MedianRate: 12e6, Sigma: 1.1}, Schedule: DriftSchedule{OutageRatePerDay: 1.0 / 300, OutageDepth: 0.05, OutageMeanDur: 4}}
	deepFrac := func(day int) float64 {
		rng := rand.New(rand.NewSource(21))
		deep, total := 0, 0
		for i := 0; i < 80; i++ {
			tr := ds.SampleDay(rng, 600, day).Trace
			mean := tr.Mean()
			for _, r := range tr.Rate {
				if r < 0.1*mean {
					deep++
				}
				total++
			}
		}
		return float64(deep) / float64(total)
	}
	if d0, d4 := deepFrac(0), deepFrac(4); d4 <= d0+0.01 {
		t.Fatalf("outage ramp did not deepen the tail: day0 %.4f vs day4 %.4f", d0, d4)
	}
}

// TestDriftScheduleSignature: the signature must be stable for equal
// schedules and distinguish different ones — it is what the checkpoint
// manifest pins via DriftingSampler.Name.
func TestDriftScheduleSignature(t *testing.T) {
	ps := presets(t)
	seen := map[string]string{}
	for name, sched := range ps {
		sig := sched.Signature()
		if prev, ok := seen[sig]; ok {
			t.Fatalf("presets %s and %s share signature %q", prev, name, sig)
		}
		seen[sig] = name
	}
	none := ps["none"]
	if sig := none.Signature(); sig != "none" {
		t.Fatalf("zero schedule signature = %q, want \"none\"", sig)
	}
	a := DriftSchedule{RateFactorPerDay: 0.9}
	b := DriftSchedule{RateFactorPerDay: 0.8}
	if a.Signature() == b.Signature() {
		t.Fatal("different decay factors share a signature")
	}
	decay := ps["decay"]
	ds := &DriftingSampler{Base: PufferPaths{MedianRate: 12e6, Sigma: 1.1}, Schedule: decay}
	if got := ds.Name(); got != "puffer+drift{"+decay.Signature()+"}" {
		t.Fatalf("DriftingSampler name %q does not embed base name and signature", got)
	}
}

// TestSampleForDayStationary: a stationary sampler via SampleForDay consumes
// exactly the same draws as a direct Sample call on every day.
func TestSampleForDayStationary(t *testing.T) {
	for day := 0; day < 3; day++ {
		got := SampleForDay(PufferPaths{MedianRate: 12e6, Sigma: 1.1}, rand.New(rand.NewSource(17)), day)
		want := PufferPaths{MedianRate: 12e6, Sigma: 1.1}.Sample(rand.New(rand.NewSource(17)), sessionTrace)
		if !pathsEqual(got, want) {
			t.Fatalf("stationary SampleForDay differs from Sample on day %d", day)
		}
	}
}

func TestDriftPresetUnknown(t *testing.T) {
	if _, err := DriftPreset("wobble"); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestDriftDescribe(t *testing.T) {
	sched, _ := DriftPreset("decay")
	if sched.Describe(0) == "" {
		// Day 0 is undrifted but the schedule is not zero; Describe may
		// legitimately return "" only for zero schedules.
		t.Log("decay Describe(0) empty (rate x1.00 collapses); acceptable")
	}
	if (&DriftSchedule{}).Describe(3) != "" {
		t.Fatal("zero schedule must describe as empty")
	}
	if got := sched.Describe(2); got == "" {
		t.Fatalf("decay Describe(2) empty, want a rate factor")
	}
}
