package telemetry

import (
	"bytes"
	"encoding/csv"
	"math"
	"strconv"
	"testing"
)

func TestSummaryBuilderBasics(t *testing.T) {
	b := NewSummaryBuilder(1, 2, "Fugu")
	b.Chunk(15, 1e6, 5e6)
	b.Chunk(17, 1.2e6, 6e6)
	b.Chunk(16, 1.1e6, 7e6)
	s := b.Finish(0.5, 6.006, 1.0, false, false)

	if s.SessionID != 1 || s.StreamID != 2 || s.Scheme != "Fugu" {
		t.Fatalf("identity fields wrong: %+v", s)
	}
	if s.Chunks != 3 {
		t.Fatalf("chunks = %d, want 3", s.Chunks)
	}
	if math.Abs(s.SSIMMean-16) > 1e-9 {
		t.Fatalf("SSIMMean = %v, want 16", s.SSIMMean)
	}
	// |17-15| = 2, |16-17| = 1 -> mean 1.5
	if math.Abs(s.SSIMVar-1.5) > 1e-9 {
		t.Fatalf("SSIMVar = %v, want 1.5", s.SSIMVar)
	}
	if s.FirstChunkSSIM != 15 {
		t.Fatalf("FirstChunkSSIM = %v, want 15", s.FirstChunkSSIM)
	}
	if math.Abs(s.PathMeanRate-6e6) > 1e-9 {
		t.Fatalf("PathMeanRate = %v, want 6e6", s.PathMeanRate)
	}
	wantBitrate := (1e6 + 1.2e6 + 1.1e6) * 8 / (3 * 2.002)
	if math.Abs(s.MeanBitrate-wantBitrate) > 1 {
		t.Fatalf("MeanBitrate = %v, want %v", s.MeanBitrate, wantBitrate)
	}
}

func TestWatchTimeAndStallRatio(t *testing.T) {
	s := StreamSummary{PlayTime: 90, StallTime: 10}
	if s.WatchTime() != 100 {
		t.Fatalf("WatchTime = %v", s.WatchTime())
	}
	// Watch time is the stall ratio's denominator: stalled over played
	// plus stalled.
	if r := s.StallTime / s.WatchTime(); r != 0.1 {
		t.Fatalf("stall ratio = %v", r)
	}
}

func TestEligibility(t *testing.T) {
	cases := []struct {
		s    StreamSummary
		want bool
	}{
		{StreamSummary{PlayTime: 10}, true},
		{StreamSummary{PlayTime: 3.9}, false},                   // under 4 s
		{StreamSummary{PlayTime: 10, NeverPlayed: true}, false}, // never played
		{StreamSummary{PlayTime: 10, BadDecoder: true}, false},  // decoder exclusion
		{StreamSummary{PlayTime: 2, StallTime: 3}, true},        // watch = play+stall
	}
	for i, c := range cases {
		if got := c.s.Eligible(); got != c.want {
			t.Errorf("case %d: Eligible = %v, want %v", i, got, c.want)
		}
	}
}

func TestSlowPathCut(t *testing.T) {
	if !(StreamSummary{PathMeanRate: 5.9e6}).SlowPath() {
		t.Fatal("5.9 Mbps should be slow")
	}
	if (StreamSummary{PathMeanRate: 6.1e6}).SlowPath() {
		t.Fatal("6.1 Mbps should not be slow")
	}
}

func TestSummariesCSVRoundtrip(t *testing.T) {
	in := []StreamSummary{
		{SessionID: 1, StreamID: 0, Scheme: "BBA", PathMeanRate: 4e6, StartupDelay: 0.8,
			PlayTime: 120.5, StallTime: 2.25, Chunks: 60, SSIMMean: 15.1234, SSIMVar: 0.9,
			MeanBitrate: 2.4e6, FirstChunkSSIM: 11.5},
		{SessionID: 2, StreamID: 1, Scheme: "Fugu", NeverPlayed: true},
		{SessionID: 3, StreamID: 0, Scheme: "MPC-HM", BadDecoder: true, PlayTime: 50},
	}
	var buf bytes.Buffer
	if err := WriteSummariesCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	// The file is what examples/abr-tournament publishes: it must parse as
	// CSV, one 14-column row per summary under the header.
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(in)+1 || len(rows[0]) != 14 || rows[0][2] != "scheme" || rows[0][5] != "play_s" {
		t.Fatalf("got %d rows under header %v, want %d summaries", len(rows), rows[0], len(in))
	}
	for i, row := range rows[1:] {
		if row[2] != in[i].Scheme || row[0] != strconv.Itoa(in[i].SessionID) {
			t.Fatalf("row %d identity mismatch: %v vs %+v", i, row, in[i])
		}
		if play, err := strconv.ParseFloat(row[5], 64); err != nil || math.Abs(play-in[i].PlayTime) > 1e-3 {
			t.Fatalf("row %d PlayTime %q vs %v", i, row[5], in[i].PlayTime)
		}
		if row[12] != strconv.FormatBool(in[i].NeverPlayed) || row[13] != strconv.FormatBool(in[i].BadDecoder) {
			t.Fatalf("row %d exclusion flags mismatch", i)
		}
	}
}

func TestSummaryBuilderNoChunks(t *testing.T) {
	b := NewSummaryBuilder(5, 0, "BBA")
	s := b.Finish(0, 0, 0, true, false)
	if s.Chunks != 0 || s.SSIMMean != 0 || s.SSIMVar != 0 {
		t.Fatalf("empty stream summary wrong: %+v", s)
	}
	if s.Eligible() {
		t.Fatal("never-played stream must be ineligible")
	}
}
