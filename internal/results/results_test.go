package results

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"puffer/internal/experiment"
	"puffer/internal/runner"
	"puffer/internal/stats"
	"puffer/internal/wire"
)

// fakeRecord fabricates a plausible record: the warehouse never inspects
// outcomes, so tests can exercise the index mechanics without running
// experiments.
func fakeRecord(i int) *Record {
	return &Record{
		Hash:      fmt.Sprintf("hash-%03d", i),
		GuardHash: fmt.Sprintf("guard-%03d", i/2),
		Name:      fmt.Sprintf("cell-%d", i),
		Spec:      json.RawMessage(fmt.Sprintf(`{"seed":%d,"drift":{"preset":"shift"},"daily":{"sessions":%d}}`, i, 100+i)),
		Outcome: Outcome{
			Total: []experiment.SchemeStats{{
				Name:       "Fugu",
				Considered: 10 * (i + 1),
				StallRatio: stats.Interval{Point: 0.01 * float64(i), Lo: 0, Hi: 0.02 * float64(i)},
				SSIM:       stats.Interval{Point: 15},
			}},
			Gaps: []runner.GapRow{
				{Day: 1, Present: true},
				{Day: 2, Present: true, Retrained: 0.01, Frozen: 0.02 + 0.01*float64(i), Gap: 0.01 + 0.01*float64(i)},
			},
		},
		Timing: Timing{WallSeconds: float64(i) * 1.5, StartedAt: "2026-08-07T00:00:00Z"},
		Host:   Host{Hostname: fmt.Sprintf("host-%d", i), OS: "linux", CPUs: 8},
	}
}

func appendAll(t *testing.T, path string, recs ...*Record) {
	t.Helper()
	w, err := OpenWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for _, r := range recs {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

func TestIndexAppendLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "index.jsonl")
	appendAll(t, path, fakeRecord(0), fakeRecord(1), fakeRecord(2))

	ix, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Records) != 3 {
		t.Fatalf("records = %d, want 3", len(ix.Records))
	}
	for i := 0; i < 3; i++ {
		want := fakeRecord(i)
		rec, ok := ix.Get(want.Hash)
		if !ok {
			t.Fatalf("missing %s", want.Hash)
		}
		if rec.Name != want.Name || rec.Timing.WallSeconds != want.Timing.WallSeconds {
			t.Fatalf("record %d round-tripped wrong: %+v", i, rec)
		}
		if ix.Records[i].Hash != want.Hash {
			t.Fatalf("file order not preserved at %d", i)
		}
	}
	if ix.Has("no-such-hash") {
		t.Fatal("Has on an absent hash")
	}
}

func TestLoadMissingFileIsEmpty(t *testing.T) {
	ix, err := Load(filepath.Join(t.TempDir(), "absent.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Records) != 0 {
		t.Fatalf("missing file should load empty, got %d records", len(ix.Records))
	}
}

// TestTornTailRepair: a kill mid-append leaves a partial trailing line.
// Load must ignore it; OpenWriter must truncate it so the next append
// produces a well-formed file.
func TestTornTailRepair(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.jsonl")
	appendAll(t, path, fakeRecord(0), fakeRecord(1))

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"hash":"torn`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	ix, err := Load(path)
	if err != nil {
		t.Fatalf("torn tail must be tolerated at load: %v", err)
	}
	if len(ix.Records) != 2 {
		t.Fatalf("records = %d, want 2 (torn line dropped)", len(ix.Records))
	}

	appendAll(t, path, fakeRecord(2))
	ix, err = Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ix.Records) != 3 || ix.Records[2].Hash != "hash-002" {
		t.Fatalf("repair-then-append produced %d records", len(ix.Records))
	}
}

// TestMalformedMidFileIsError: garbage followed by more data is
// corruption, not a torn tail, and must fail loudly.
func TestMalformedMidFileIsError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.jsonl")
	blob, _ := json.Marshal(fakeRecord(0))
	content := append([]byte("not json\n"), blob...)
	content = append(content, '\n')
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("malformed mid-file line must be an error")
	}
}

// TestCanonicalBytesExcludesTimingHost: records differing only in timing
// and host metadata are canonically identical; differing content is not.
func TestCanonicalBytesExcludesTimingHost(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")

	ra := fakeRecord(0)
	rb := fakeRecord(0)
	rb.Timing = Timing{WallSeconds: 999, StartedAt: "2031-01-01T00:00:00Z"}
	rb.Host = Host{Hostname: "elsewhere", Arch: "arm64"}
	appendAll(t, a, ra, fakeRecord(1))
	appendAll(t, b, rb, fakeRecord(1))

	ixA, _ := Load(a)
	ixB, _ := Load(b)
	if !bytes.Equal(ixA.CanonicalBytes(), ixB.CanonicalBytes()) {
		t.Fatal("CanonicalBytes must not depend on timing/host")
	}

	c := filepath.Join(dir, "c.jsonl")
	appendAll(t, c, fakeRecord(0), fakeRecord(2))
	ixC, _ := Load(c)
	if bytes.Equal(ixA.CanonicalBytes(), ixC.CanonicalBytes()) {
		t.Fatal("CanonicalBytes must reflect record content")
	}

	// The per-day fleet serving record is scheduling history (a resumed
	// cell replays days served by whichever engine ran them first), so it
	// is excluded like timing/host.
	rd := fakeRecord(0)
	rd.Outcome.Days = []runner.DayStats{{Day: 1, Chunks: 7}}
	re := fakeRecord(0)
	re.Outcome.Days = []runner.DayStats{{Day: 1, Chunks: 7, Fleet: &runner.FleetDayStats{PeakConcurrent: 9}}}
	d, e := filepath.Join(dir, "d.jsonl"), filepath.Join(dir, "e.jsonl")
	appendAll(t, d, rd)
	appendAll(t, e, re)
	ixD, _ := Load(d)
	ixE, _ := Load(e)
	if !bytes.Equal(ixD.CanonicalBytes(), ixE.CanonicalBytes()) {
		t.Fatal("CanonicalBytes must not depend on the fleet serving record")
	}
	if ixE.Records[0].Outcome.Days[0].Fleet == nil {
		t.Fatal("CanonicalBytes must not mutate loaded records")
	}
}

// TestQueryAppendOrderIndependence: the same set of records appended in
// different orders answers every query identically.
func TestQueryAppendOrderIndependence(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	appendAll(t, a, fakeRecord(0), fakeRecord(1), fakeRecord(2), fakeRecord(3))
	appendAll(t, b, fakeRecord(3), fakeRecord(1), fakeRecord(0), fakeRecord(2), fakeRecord(1)) // dup append too

	ixA, _ := Load(a)
	ixB, _ := Load(b)
	queries := []Query{
		{Cols: []string{"name", "hash", "seed", "Fugu.stall_pct"}},
		{Where: mustPreds(t, "daily.sessions>=102"), Cols: []string{"name"}},
		{PerDay: true, Cols: []string{"name", "day", "gap_pp"}},
		{PerDay: true, GroupBy: []string{"day"}, Agg: "mean", AggCol: "gap_pp"},
		{GroupBy: []string{"drift.preset"}, Agg: "count"},
	}
	for i, q := range queries {
		ta, err := ixA.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		tb, err := ixB.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		var ba, bb bytes.Buffer
		if err := ta.WriteText(&ba); err != nil {
			t.Fatal(err)
		}
		if err := tb.WriteText(&bb); err != nil {
			t.Fatal(err)
		}
		if ba.String() != bb.String() {
			t.Fatalf("query %d depends on append order:\n%s\nvs\n%s", i, ba.String(), bb.String())
		}
	}
}

func mustPreds(t *testing.T, s string) []Pred {
	t.Helper()
	preds, err := ParsePreds(s)
	if err != nil {
		t.Fatal(err)
	}
	return preds
}

func TestPredicatesAndProjection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.jsonl")
	appendAll(t, path, fakeRecord(0), fakeRecord(1), fakeRecord(2))
	ix, _ := Load(path)

	tbl, err := ix.Query(Query{Where: mustPreds(t, "seed>0,seed<2"), Cols: []string{"name", "seed"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 || tbl.Rows[0][0] != "cell-1" || tbl.Rows[0][1] != "1" {
		t.Fatalf("numeric range predicate: %+v", tbl.Rows)
	}

	tbl, err = ix.Query(Query{Where: mustPreds(t, "drift.preset!=shift"), Cols: []string{"name"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 0 {
		t.Fatalf("string != should match nothing here, got %+v", tbl.Rows)
	}

	// A predicate over a column records lack excludes them.
	tbl, err = ix.Query(Query{Where: mustPreds(t, "no.such.col=1"), Cols: []string{"name"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 0 {
		t.Fatalf("missing column must never match, got %+v", tbl.Rows)
	}

	if _, err := ParsePreds("nonsense"); err == nil {
		t.Fatal("predicate without operator must be rejected")
	}
}

// FuzzParsePreds: a predicate list is refused or parses to predicates
// that each have a known operator and a non-empty field holding none of the
// operator characters. The seeds hold predicates with no field ("<=5",
// "!=x") and one whose leftmost operator is not the first one tried
// ("a<b=c").
func FuzzParsePreds(f *testing.F) {
	for _, s := range []string{"<=5", "!=x", "a<b=c", "drift.preset=shift,daily.sessions>=100"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		preds, err := ParsePreds(s)
		if err != nil {
			return
		}
		for _, p := range preds {
			if p.Field == "" || strings.ContainsAny(p.Field, "=!<>") || !slices.Contains(predOps, p.Op) {
				t.Fatalf("ParsePreds(%q) parsed %+v", s, p)
			}
		}
	})
}

// FuzzLoadIndex: an index file from outside is refused with a typed error
// (a *wire.LineError for a corrupt line that is not the last, or the
// scanner's own for an over-long line) or loads to records that, appended
// to a fresh index and loaded back, give the same CanonicalBytes. The
// seeds hold a well-formed index, one with a torn tail, and one corrupt in
// the middle.
func FuzzLoadIndex(f *testing.F) {
	var good []byte
	for i := range 3 {
		blob, err := json.Marshal(fakeRecord(i))
		if err != nil {
			f.Fatal(err)
		}
		good = append(append(good, blob...), '\n')
	}
	f.Add(good)
	f.Add(append(slices.Clone(good), `{"hash":"torn`...))
	f.Add(append([]byte("{\"hash\":\n"), good...))
	// One directory for every input: a fresh one per input costs more than
	// the load itself.
	dir := f.TempDir()
	path, again := filepath.Join(dir, "index.jsonl"), filepath.Join(dir, "again.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ix, err := Load(path)
		if err != nil {
			var le *wire.LineError
			if !errors.As(err, &le) && !errors.Is(err, bufio.ErrTooLong) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if err := os.Remove(again); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		appendAll(t, again, ix.Records...)
		re, err := Load(again)
		if err != nil {
			t.Fatalf("re-appended records do not load: %v", err)
		}
		if !bytes.Equal(re.CanonicalBytes(), ix.CanonicalBytes()) {
			t.Fatalf("re-appended index differs:\n%s\nvs\n%s", re.CanonicalBytes(), ix.CanonicalBytes())
		}
	})
}

func TestGroupAggregate(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.jsonl")
	appendAll(t, path, fakeRecord(0), fakeRecord(1), fakeRecord(2))
	ix, _ := Load(path)

	tbl, err := ix.Query(Query{GroupBy: []string{"drift.preset"}, Agg: "mean", AggCol: "seed"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 || tbl.Rows[0][0] != "shift" || tbl.Rows[0][1] != "1" {
		t.Fatalf("mean aggregate: %+v", tbl.Rows)
	}
	if tbl.Cols[1] != "mean(seed)" {
		t.Fatalf("aggregate column name: %v", tbl.Cols)
	}
	if _, err := ix.Query(Query{GroupBy: []string{"x"}, Agg: "median", AggCol: "seed"}); err == nil {
		t.Fatal("unknown aggregate must be rejected")
	}
	if _, err := ix.Query(Query{GroupBy: []string{"x"}, Agg: "mean"}); err == nil {
		t.Fatal("mean without a column must be rejected")
	}
}
