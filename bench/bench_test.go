package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"puffer/internal/experiment"
	"puffer/internal/obs"
	"puffer/internal/scenario"
	"puffer/internal/stats"
)

// TestMain lets the test binary stand in for the bench binary as the dist
// engine's worker, exactly as main does.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == distWorkerFlag {
		if err := scenario.ServeDistWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

func TestSummarize(t *testing.T) {
	s := summarize("x", "us", []float64{5, 1, 4, 2, 3})
	if s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 || s.Min != 1 || s.Max != 5 || s.N != 5 || s.MaxOverMin != 5 {
		t.Fatalf("summarize = %+v", s)
	}
	if s := summarize("x", "us", []float64{7}); s.Median != 7 || s.Q1 != 7 || s.MaxOverMin != 1 {
		t.Fatalf("single sample = %+v", s)
	}
	if s := summarize("x", "us", nil); s.N != 0 || s.Median != 0 {
		t.Fatalf("empty = %+v", s)
	}
}

func TestHistQuantileInterpolates(t *testing.T) {
	h := obs.HistSnapshot{Count: 100, Buckets: []obs.HistBucket{
		{Low: 100, High: 199, Count: 50}, {Low: 200, High: 299, Count: 50}}}
	for _, c := range []struct{ p, want float64 }{{0.25, 150}, {0.5, 200}, {0.75, 250}, {0.99, 298}} {
		if got := histQuantile(h, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := histQuantile(obs.HistSnapshot{}, 0.5); got != 0 {
		t.Errorf("empty snapshot = %v", got)
	}
}

// The quantile of a window is taken on the delta of two snapshots, and must
// see a shift smaller than one bucket, which HistSnapshot.Quantile cannot.
func TestHistQuantileOnDelta(t *testing.T) {
	was := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(was)
	h := obs.NewRegistry().Histogram("t")
	for i := 0; i < 1000; i++ {
		h.Observe(50)
	}
	before := h.Snapshot()
	for i := 0; i < 1000; i++ {
		h.Observe(int64(100_000 + i))
	}
	d := h.Snapshot().Sub(before)
	if d.Count != 1000 {
		t.Fatalf("delta count = %d", d.Count)
	}
	p50 := histQuantile(d, 0.5)
	if p50 < 100_000 || p50 > 101_000*33/32 {
		t.Fatalf("delta p50 = %v, want the second window's values only", p50)
	}
	if lo, hi := histQuantile(d, 0.2), histQuantile(d, 0.8); !(lo < p50 && p50 < hi) {
		t.Fatalf("quantiles not increasing inside one bucket run: %v %v %v", lo, p50, hi)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},  // nested
		{Name: "a1", Start: 15, End: 25, Parent: 1}, // nested twice
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a by 10
		{Name: "z", Start: 70, End: 70, Parent: 0},  // zero length
		{Name: "late", Start: 90, End: 120, Parent: 0},
	}
	want := []int64{100 - 30 - 20 - 0 - 10, 30 - 10, 10, 30, 0, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self[%s] = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	rows := budget(spans)
	if rows[0].Name != "root" || rows[1].Name != "a" || rows[1].ShareOfParent != 0.3 {
		t.Errorf("budget = %+v", rows[:2])
	}
}

func TestRecorderNilAndDoor(t *testing.T) {
	var r *recorder
	r.end(r.begin("x", -1, 0))
	r.end(r.door("x"))
	was := obs.Enabled()
	obs.SetEnabled(true)
	defer obs.SetEnabled(was)
	r = &recorder{repeat: -1}
	if id := r.door("front"); id != -1 {
		t.Fatalf("door outside a repeat = %d", id)
	}
	r.repeat = r.begin("repeat", -1, 3)
	id := r.door("front")
	r.end(id)
	if s := r.spans[id]; s.Parent != r.repeat || s.Repeat != 3 || s.End < s.Start {
		t.Fatalf("door span = %+v", s)
	}
	if o := obsSpans(r.spans); o[1].Parent != o[0].ID || o[1].Name != "bench.front" {
		t.Fatalf("obsSpans = %+v", o)
	}
}

func sampleStats() []experiment.SchemeStats {
	return []experiment.SchemeStats{{Name: "Fugu", Sessions: 3, Considered: 2,
		StallRatio: stats.Interval{Point: 0.01, Lo: 0.005, Hi: 0.02},
		SSIM:       stats.Interval{Point: 16.5, Lo: 16, Hi: 17}, WatchYears: 0.001}}
}

func TestDigestStable(t *testing.T) {
	a, b := statsDigest(1, sampleStats()), statsDigest(1, sampleStats())
	const golden = "04b4b517676328baae5dc2bde6cbaf3851a6b7935f28dccfd90c97b857a2597b"
	if a != b || a != golden {
		t.Fatalf("digest %s / %s, want %s", a, b, golden)
	}
	changed := sampleStats()
	changed[0].Considered++
	if statsDigest(1, changed) == a || statsDigest(2, sampleStats()) == a {
		t.Fatal("digest does not depend on the table")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNamesValid(t *testing.T) {
	seen := map[string]bool{}
	check := func(d metricDef, bounded bool) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q unit %q: invalid", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		if bounded != (d.Bound > 0) || d.Bound > 0.25 {
			t.Errorf("metric %q: bound = %v", d.Name, d.Bound)
		}
	}
	for _, d := range endToEnd {
		check(d, true)
	}
	for _, d := range perLayer {
		check(d, false)
	}
	for _, w := range workloadNames {
		if !nameRE.MatchString(w) || seen[w] {
			t.Errorf("workload name %q invalid or clashes with a metric", w)
		}
		seen[w] = true
	}
}

// BENCHMARK.json repeats the metric tables for the driver; the code is what
// prints them. They must say the same thing.
func TestBenchmarkJSONMatches(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(blob)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
	var listed []string
	for _, w := range workloadNames {
		if w != unlisted {
			listed = append(listed, w)
		}
	}
	if len(doc.Workloads) != len(listed) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(listed))
	}
	for i, w := range doc.Workloads {
		if w.Name != listed[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d = %+v", i, w)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d end-to-end and %d per-layer metrics, want %d and %d",
			len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range doc.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, code says %+v", i, m, d)
		}
	}
	for i, m := range doc.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, code says %+v", i, m, d)
		}
	}
}

// A wrong table or a failed operation must fail the run and show in
// failed_share.
func TestJudgeFailsLoudly(t *testing.T) {
	ref := reference{digest: "good", sessions: 10, decisions: 100}
	ok := sample{out: repeatOut{digest: "good", attempted: 10}}

	var clean result
	judge(&clean, ref, []sample{ok, ok})
	if !clean.Correct || clean.Failed != 0 || clean.Attempted != 20 {
		t.Fatalf("clean run judged %+v", clean)
	}

	var corrupt result
	judge(&corrupt, ref, []sample{ok, {out: repeatOut{digest: "bad", attempted: 10}}})
	if corrupt.Correct || corrupt.Failed != 10 || corrupt.FailedShare != 0.5 || len(corrupt.Problems) != 1 {
		t.Fatalf("corrupted repeat judged %+v", corrupt)
	}

	var failed result
	judge(&failed, ref, []sample{{out: repeatOut{digest: "good", attempted: 10, failed: 1}}})
	if failed.Correct || failed.FailedShare != 0.1 {
		t.Fatalf("failed session judged %+v", failed)
	}

	var empty result
	judge(&empty, ref, nil)
	if empty.Correct {
		t.Fatal("a run that attempted nothing judged correct")
	}
}

func TestStealSeconds(t *testing.T) {
	stat := "cpu  1556443 0 79248 932617 5164 0 15742 64142 0 0\ncpu0 778000 0 39000 466000 2500 0 7800 32000 0 0\n"
	if got := stealSeconds(stat); got != 641.42 {
		t.Errorf("steal = %v s, want 641.42", got)
	}
	for _, none := range []string{"", "cpu 1 2 3 4 5 6 7", "intr 1 2 3 4 5 6 7 8 9"} {
		if got := stealSeconds(none); got != 0 {
			t.Errorf("stealSeconds(%q) = %v, want 0", none, got)
		}
	}
}

// quiet chooses repeats by what the host did to them, never by how fast
// they were, and keeps its order among equals.
func TestQuietPicksByStealNotByOutcome(t *testing.T) {
	rep := func(wall, steal float64) sample { return sample{wall: wall, steal: steal} }
	walls := func(ss []sample) (out []float64) {
		for _, s := range ss {
			out = append(out, s.wall)
		}
		return out
	}
	// On two cores 1% of a 1 s repeat is 0.02 s of steal.
	all := []sample{rep(1, 0.5), rep(3, 0), rep(1.2, 0.02), rep(1, 0.3), rep(0.9, 0.03)}
	if got := walls(quiet(all, 1)); !reflect.DeepEqual(got, []float64{3, 1.2}) {
		t.Errorf("quiet repeats = %v, want the two under 1%% steal, slow or not", got)
	}
	if got := walls(quiet(all, 4)); !reflect.DeepEqual(got, []float64{3, 1.2, 0.9, 1}) {
		t.Errorf("with too few quiet, the least disturbed stand in: got %v", got)
	}
	if got := walls(quiet(all, 9)); len(got) != len(all) {
		t.Errorf("asked for more than there are: got %v", got)
	}
	still := []sample{rep(2, 0), rep(1, 0), rep(3, 0)}
	if got := walls(quiet(still, 1)); !reflect.DeepEqual(got, []float64{2, 1, 3}) {
		t.Errorf("a host that reports no steal keeps every repeat in order: got %v", got)
	}
}

func TestCrossCheckCatchesAnEngine(t *testing.T) {
	set := func(d string) []*result {
		return []*result{
			{Workload: "daily-session", Digest: "d", Correct: true},
			{Workload: "daily-fleet", Digest: d, Correct: true},
			{Workload: "daily-dist", Digest: "d", Correct: true},
			{Workload: "serve-closed", Digest: "other", Correct: true},
		}
	}
	if p := crossCheck(set("d")); len(p) != 0 {
		t.Fatalf("clean set: %v", p)
	}
	if p := crossCheck(set("x")); len(p) != 1 || !strings.Contains(p[0], "daily-fleet") {
		t.Fatalf("corrupted fleet digest: %v", p)
	}
}

func TestSummarizeRuns(t *testing.T) {
	run := func(v float64) *result {
		return &result{Workload: "w", Digest: "d",
			Metrics: []summary{{Name: "m", Unit: "us", Median: v}}, Info: []summary{{Name: "i", Unit: "MB", Median: 2 * v}}}
	}
	e := summarizeRuns([]*result{run(3), run(1), run(2)})
	if e.Workload != "w" || e.Digest != "d" || e.Metrics[0].Median != 2 || e.Metrics[0].N != 3 || e.Info[0].Median != 4 {
		t.Fatalf("set entry = %+v", e)
	}
}

func TestWorse(t *testing.T) {
	if w := worse("lower", 100, 110); w < 0.0999 || w > 0.1001 {
		t.Errorf("lower: %v", w)
	}
	if w := worse("higher", 100, 90); w < 0.0999 || w > 0.1001 {
		t.Errorf("higher: %v", w)
	}
	if w := worse("higher", 100, 120); w >= 0 {
		t.Errorf("an improvement reads as worse: %v", w)
	}
}

// The smoke: every workload end to end at 1/20 scale with one repeat, traced
// too, so go test exercises the harness, the layer pass, the span file and
// the -dist-worker re-exec.
func TestShortSmoke(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	wasOn := obs.Enabled()
	defer obs.SetEnabled(wasOn)
	digests := map[string]string{}
	for _, trace := range []bool{false, true} {
		for _, w := range workloadNames {
			cfg := config{workload: w, seed: 7, trace: trace, short: true, dir: t.TempDir(), out: t.TempDir(), exe: exe}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%v: %+v", w, trace, res.Problems)
			}
			line := contractLine(res)
			want := len(endToEnd)
			if trace {
				want = len(perLayer)
				if _, err := os.Stat(res.TraceFile); err != nil {
					t.Errorf("%s: span file: %v", w, err)
				}
				if len(res.Budget) == 0 {
					t.Errorf("%s: empty budget table", w)
				}
			} else {
				digests[w] = res.Digest
				for _, m := range res.Metrics {
					if !(m.Median > 0) {
						t.Errorf("%s: %s = %v, end-to-end metrics are never 0", w, m.Name, m.Median)
					}
				}
			}
			if got := len(line["metrics"].(map[string]metricValue)); got != want || len(line) != 4 {
				t.Errorf("%s trace=%v: contract line has %d metrics and %d keys", w, trace, got, len(line))
			}
		}
	}
	if digests["daily-session"] != digests["daily-fleet"] || digests["daily-session"] != digests["daily-dist"] {
		t.Errorf("engines disagree: %v", digests)
	}
}
