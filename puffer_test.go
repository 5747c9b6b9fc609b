package puffer

import (
	"testing"
)

// TestPublicAPIPipeline exercises the façade end to end at a small scale:
// collect → train → deploy → analyze.
func TestPublicAPIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("pipeline test skipped in -short")
	}
	env := DefaultEnv()
	data, err := CollectDataset(env, []Scheme{{Name: "BBA", New: NewBBA}}, 50, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if data.NumChunks() == 0 {
		t.Fatal("no telemetry collected")
	}

	ttp := NewTTP(2)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	if err := TrainTTP(ttp, data, cfg); err != nil {
		t.Fatal(err)
	}

	acc, err := RunExperiment(Config{
		Env: env,
		Schemes: []Scheme{
			{Name: "Fugu", New: func() Algorithm { return NewFugu(ttp) }},
			{Name: "BBA", New: NewBBA},
			{Name: "MPC-HM", New: NewMPCHM},
			{Name: "RobustMPC-HM", New: NewRobustMPCHM},
		},
		Sessions: 60,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}

	rows := acc.Analyze(4)
	if len(rows) != 4 {
		t.Fatalf("got %d scheme rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Considered == 0 {
			t.Fatalf("%s: no considered streams", r.Name)
		}
		if r.SSIM.Point < 8 || r.SSIM.Point > 19 {
			t.Fatalf("%s: implausible SSIM %v", r.Name, r.SSIM.Point)
		}
	}

	sessions := 0
	for _, r := range rows {
		sessions += r.Sessions
	}
	if sessions != 60 {
		t.Fatalf("CONSORT sessions = %d, want 60", sessions)
	}
}

func TestEnvironments(t *testing.T) {
	d := DefaultEnv()
	if d.Paths.Name() != "puffer" {
		t.Fatalf("default env paths = %s", d.Paths.Name())
	}
	e := EmulationEnv()
	if e.Paths.Name() != "fcc" || e.Clip == nil {
		t.Fatal("emulation env misconfigured")
	}
}

func TestFacadeConstructors(t *testing.T) {
	for _, alg := range []Algorithm{NewBBA(), NewMPCHM(), NewRobustMPCHM(), NewFugu(NewTTP(1))} {
		if alg.Name() == "" {
			t.Fatal("empty scheme name")
		}
		alg.Reset()
	}
}

// TestDriftFacade exercises the drift surface through the public API: build
// a drifting deployment and check the day index changes the distribution a
// stationary sampler would ignore.
func TestDriftFacade(t *testing.T) {
	for _, name := range []string{"none", "decay", "shift", "mix"} {
		if _, err := DriftPreset(name); err != nil {
			t.Fatalf("preset %s: %v", name, err)
		}
	}
	if _, err := DriftPreset("bogus"); err == nil {
		t.Fatal("bogus preset accepted")
	}
	sched, err := DriftPreset("decay")
	if err != nil {
		t.Fatal(err)
	}
	env := DefaultEnv()
	var ds DaySampler = &DriftingSampler{Base: env.Paths, Schedule: sched}
	env.Paths = ds
	if env.Paths.Name() == "puffer" {
		t.Fatal("drifting sampler must not masquerade as the stationary family")
	}
	if sched.RateScale(3) >= sched.RateScale(1) {
		t.Fatal("decay schedule does not decay")
	}
}
