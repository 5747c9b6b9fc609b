package figures

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"puffer/internal/abr"
	"puffer/internal/experiment"
	"puffer/internal/stats"
)

// testSuite hand-builds a Suite whose primary experiment is a small trial
// of classical schemes, so no model trains and the primary-trial readouts
// run in seconds. Five arms give the Sec53 pool many possible orders.
func testSuite(t *testing.T) *Suite {
	t.Helper()
	trial := experiment.Config{
		Env: experiment.DefaultEnv(),
		Schemes: []experiment.Scheme{
			{Name: "BBA", New: func() abr.Algorithm { return abr.NewBBA() }},
			{Name: "MPC-HM", New: func() abr.Algorithm { return abr.NewMPCHM() }},
			{Name: "RobustMPC-HM", New: func() abr.Algorithm { return abr.NewRobustMPCHM() }},
			{Name: "RateBased", New: func() abr.Algorithm { return abr.NewRateBased() }},
			{Name: "BOLA", New: func() abr.Algorithm { return abr.NewBOLA() }},
		},
		Sessions: 120,
		Seed:     11,
	}
	s := &Suite{Scale: trial.Sessions, Seed: 1, Logf: func(string, ...any) {}}
	var err error
	if s.primary, err = trial.RunSharded(experiment.DefaultShardSize, 0, experiment.AllPaths); err != nil {
		t.Fatal(err)
	}
	if s.primarySlow, err = trial.RunSharded(experiment.DefaultShardSize, 0, experiment.SlowPaths); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSec53Reproducible: the power analysis resamples a pool built from
// every arm's streams; the pool's order must not depend on map iteration,
// so repeated calls print and return the same rows. One small sample size
// keeps the resampling cheap.
func TestSec53Reproducible(t *testing.T) {
	defer func(sizes []int) { sec53Sizes = sizes }(sec53Sizes)
	sec53Sizes = []int{1000}
	s := testSuite(t)
	var first bytes.Buffer
	want, err := s.Sec53(&first)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		var out bytes.Buffer
		got, err := s.Sec53(&out)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: Sec53 rows differ from the first call's:\n%+v\nvs\n%+v", i+2, got, want)
		}
		if !bytes.Equal(out.Bytes(), first.Bytes()) {
			t.Fatalf("call %d: Sec53 output differs from the first call's:\n%s\nvs\n%s", i+2, out.Bytes(), first.Bytes())
		}
	}
}

// TestFigA1Accounting: every randomized session lands in one arm, and every
// stream of an arm is either considered or excluded for exactly one reason.
func TestFigA1Accounting(t *testing.T) {
	s := testSuite(t)
	arms, err := s.FigA1(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sessions := 0
	for _, a := range arms {
		sessions += a.Sessions
		if a.Considered+a.NeverPlayed+a.ShortWatch+a.BadDecoder != a.Streams {
			t.Errorf("%s: %d considered + %d never played + %d short + %d bad decoder != %d streams",
				a.Name, a.Considered, a.NeverPlayed, a.ShortWatch, a.BadDecoder, a.Streams)
		}
	}
	if sessions != s.Scale {
		t.Fatalf("sessions across arms = %d, want %d", sessions, s.Scale)
	}
}

// TestFig8SlowPanelWithinAllPaths: the slow-path panel keeps a subset of
// each arm's considered streams.
func TestFig8SlowPanelWithinAllPaths(t *testing.T) {
	s := testSuite(t)
	all, slow, err := s.Fig8(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(s.primary.Schemes) || len(slow) != len(all) {
		t.Fatalf("got %d all-paths and %d slow-path rows, want %d each", len(all), len(slow), len(s.primary.Schemes))
	}
	for i := range all {
		if slow[i].Name != all[i].Name {
			t.Fatalf("row %d: slow panel arm %s, all-paths arm %s", i, slow[i].Name, all[i].Name)
		}
		if slow[i].Considered > all[i].Considered {
			t.Errorf("%s: slow panel considers %d streams, all paths only %d",
				all[i].Name, slow[i].Considered, all[i].Considered)
		}
	}
}

// TestFig10MeansMatchDurations: each arm's mean time on site is the plain
// mean (with its interval) over that arm's session durations. Figure 10
// lists only the paper's arms, three of the five here.
func TestFig10MeansMatchDurations(t *testing.T) {
	s := testSuite(t)
	rows, err := s.Fig10(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		want := stats.MeanSE(s.primary.Schemes[r.Scheme].Duration.Values)
		if r.MeanDuration != want {
			t.Errorf("%s: mean duration %+v, want %+v", r.Scheme, r.MeanDuration, want)
		}
	}
}
