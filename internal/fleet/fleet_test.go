package fleet

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"puffer/internal/abr"
	"puffer/internal/core"
	"puffer/internal/experiment"
	"puffer/internal/runner"
)

// testTTP is a small untrained TTP — decision cost and code paths are
// identical to a trained one.
func testTTP(seed int64) *core.TTP {
	return core.NewTTP(rand.New(rand.NewSource(seed)), core.DefaultHorizon, []int{16, 16},
		core.DefaultFeatures(), core.KindTransTime)
}

// deployTrial mirrors the runner's steady-state mixture: Fugu (TTP-backed,
// so the fleet defers its inference) randomized against BBA.
func deployTrial(t *core.TTP, sessions int, seed int64) *experiment.Config {
	return &experiment.Config{
		Env: experiment.DefaultEnv(),
		Schemes: []experiment.Scheme{
			{Name: "Fugu", New: func() abr.Algorithm { return abr.NewExplorer(core.NewFugu(t), 0.05, seed+2) }},
			{Name: "BBA", New: func() abr.Algorithm { return abr.NewBBA() }},
		},
		Sessions: sessions,
		Seed:     seed,
	}
}

// bootstrapTrial mirrors the runner's day-0 mixture: classical schemes
// only, nothing deferrable.
func bootstrapTrial(sessions int, seed int64) *experiment.Config {
	return &experiment.Config{
		Env: experiment.DefaultEnv(),
		Schemes: []experiment.Scheme{
			{Name: "BBA", New: func() abr.Algorithm { return abr.NewExplorer(abr.NewBBA(), 0.15, seed) }},
			{Name: "MPC-HM", New: func() abr.Algorithm { return abr.NewExplorer(abr.NewMPCHM(), 0.10, seed+1) }},
			{Name: "RobustMPC-HM", New: func() abr.Algorithm { return abr.NewRobustMPCHM() }},
		},
		Sessions: sessions,
		Seed:     seed,
	}
}

// seqShardAcc folds the trial sequentially through the canonical sharded
// aggregation, computing each session directly (no fleet engine involved).
func seqShardAcc(trial *experiment.Config, shardSize int) *experiment.TrialAcc {
	return experiment.FoldShards(trial.Sessions, shardSize, experiment.AllPaths,
		func(id int) *experiment.SessionResult {
			sess := trial.RunOne(id)
			return &sess
		})
}

// accFingerprint reduces an accumulator to comparable bytes: the exact gob
// state of every scheme accumulator in sorted-name order (gob of the map
// itself would serialize in random order), plus the analyzed statistics.
func accFingerprint(t *testing.T, acc *experiment.TrialAcc, seed int64) []byte {
	t.Helper()
	names := make([]string, 0, len(acc.Schemes))
	for name := range acc.Schemes {
		names = append(names, name)
	}
	sort.Strings(names)
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, name := range names {
		if err := enc.Encode(acc.Schemes[name]); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := json.Marshal(acc.Analyze(seed))
	if err != nil {
		t.Fatal(err)
	}
	return append(buf.Bytes(), blob...)
}

// TestFleetMatchesSequentialDeploy: the tentpole guarantee — the fleet
// engine's pooled accumulator (and collected telemetry) is byte-identical
// to the sequential sharded fold at the same seed, on the NN-backed deploy
// mixture whose inference runs through the cross-session batched service.
func TestFleetMatchesSequentialDeploy(t *testing.T) {
	ttp := testTTP(3)
	const sessions, shard = 28, 8

	seqTrial := deployTrial(ttp, sessions, 11)
	seqCol := experiment.NewDatasetCollector()
	seqTrial.Recorder = seqCol
	want := seqShardAcc(seqTrial, shard)

	fleetTrial := deployTrial(ttp, sessions, 11)
	fleetCol := experiment.NewDatasetCollector()
	fleetTrial.Recorder = fleetCol
	got, st, err := RunTrial(fleetTrial, Config{ShardSize: shard, Tick: 0.5, Arrivals: PoissonArrivals{Rate: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(accFingerprint(t, want, 5), accFingerprint(t, got, 5)) {
		t.Fatal("fleet accumulator differs from sequential shard fold")
	}

	var a, b bytes.Buffer
	if err := gob.NewEncoder(&a).Encode(seqCol.Dataset()); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&b).Encode(fleetCol.Dataset()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("fleet-collected telemetry differs from sequential telemetry")
	}

	if st.Deferred == 0 || st.Rows == 0 {
		t.Fatalf("deploy mixture staged no inference work: %+v", st)
	}
	if st.Decisions <= st.Deferred/2 {
		t.Fatalf("implausible decision counts: %+v", st)
	}
}

// TestFleetMatchesSequentialBootstrap: same guarantee on the classical
// mixture, where nothing defers and every decision computes at its park.
func TestFleetMatchesSequentialBootstrap(t *testing.T) {
	const sessions, shard = 24, 8
	want := seqShardAcc(bootstrapTrial(sessions, 7), shard)
	got, st, err := RunTrial(bootstrapTrial(sessions, 7), Config{ShardSize: shard})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(accFingerprint(t, want, 9), accFingerprint(t, got, 9)) {
		t.Fatal("fleet accumulator differs from sequential on the bootstrap mixture")
	}
	if st.Deferred != 0 || st.Rows != 0 {
		t.Fatalf("bootstrap mixture unexpectedly staged inference: %+v", st)
	}
	if st.Decisions == 0 {
		t.Fatal("no decisions recorded")
	}
}

// TestFleetInvariantToWorkersTickArrivals: results (and the deterministic
// stats) must not depend on worker count, tick size, or arrival process.
func TestFleetInvariantToWorkersTickArrivals(t *testing.T) {
	ttp := testTTP(5)
	const sessions, shard = 20, 8
	base, baseStats, err := RunTrial(deployTrial(ttp, sessions, 13), Config{ShardSize: shard, Workers: 1, Tick: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	want := accFingerprint(t, base, 3)

	variants := []Config{
		{ShardSize: shard, Workers: 8, Tick: 0.25},
		{ShardSize: shard, Workers: 3, Tick: 5},
		{ShardSize: shard, Workers: 8, Tick: 0.01},
		{ShardSize: shard, Workers: 2, Tick: 0.25, Arrivals: BurstArrivals{Burst: 10, Gap: 30}},
		{ShardSize: shard, Workers: 2, Tick: 0.25, Arrivals: PoissonArrivals{Rate: 100}},
	}
	for i, fc := range variants {
		acc, st, err := RunTrial(deployTrial(ttp, sessions, 13), fc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, accFingerprint(t, acc, 3)) {
			t.Fatalf("variant %d (%+v): results differ from baseline", i, fc)
		}
		if st.Decisions != baseStats.Decisions || st.Deferred != baseStats.Deferred || st.Rows != baseStats.Rows {
			t.Fatalf("variant %d: decision/row counts differ: %+v vs %+v", i, st, baseStats)
		}
	}

	// Same workers+tick, rerun: batching stats must reproduce exactly.
	again, againStats, err := RunTrial(deployTrial(ttp, sessions, 13), Config{ShardSize: shard, Workers: 1, Tick: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, accFingerprint(t, again, 3)) {
		t.Fatal("rerun differs")
	}
	if againStats.Flushes != baseStats.Flushes || againStats.Batches != baseStats.Batches ||
		againStats.MaxBatchRows != baseStats.MaxBatchRows || againStats.PeakConcurrent != baseStats.PeakConcurrent {
		t.Fatalf("rerun batching stats differ: %+v vs %+v", againStats, baseStats)
	}
}

// TestArrivalDeterminism: the arrival schedule is deterministic per (seed,
// process), sorted, and differs across seeds.
func TestArrivalDeterminism(t *testing.T) {
	a := ArrivalTimes(PoissonArrivals{Rate: 3}, 42, 200)
	b := ArrivalTimes(PoissonArrivals{Rate: 3}, 42, 200)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs across identical draws", i)
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("arrivals not sorted at %d", i)
		}
	}
	c := ArrivalTimes(PoissonArrivals{Rate: 3}, 43, 200)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical arrival schedules")
	}
	if bt := ArrivalTimes(BurstArrivals{Burst: 50, Gap: 10}, 1, 120); bt[49] != 0 || bt[50] != 10 || bt[119] != 20 {
		t.Fatalf("burst arrivals wrong: %v %v %v", bt[49], bt[50], bt[119])
	}
}

// TestFleetOccupancy: with overlapping arrivals the engine must actually
// multiplex (peak concurrency > 1) and the batched service must amortize
// across sessions (some cross-session batch bigger than one decision's
// rows).
func TestFleetOccupancy(t *testing.T) {
	ttp := testTTP(9)
	_, st, err := RunTrial(deployTrial(ttp, 16, 21),
		Config{ShardSize: 8, Tick: 0.5, Arrivals: BurstArrivals{Burst: 16, Gap: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if st.PeakConcurrent < 2 {
		t.Fatalf("burst arrivals but peak concurrency %d", st.PeakConcurrent)
	}
	if st.MeanConcurrent <= 0 || st.HorizonSeconds <= 0 {
		t.Fatalf("degenerate occupancy: %+v", st)
	}
	if st.Occupancy.Peak() != st.PeakConcurrent {
		t.Fatal("summary peak disagrees with series")
	}
	// 10 rungs per decision: any batch beyond that means cross-session
	// (or cross-step) amortization happened.
	if st.MaxBatchRows <= 10 {
		t.Fatalf("no cross-session batching: max batch %d rows", st.MaxBatchRows)
	}
}

// Captured at the commit before the calendar stopped boxing events, from
// this exact test body.
var goldenFleetStats = runner.FleetDayStats{
	PeakConcurrent: 21, MeanConcurrent: 4.169329320800429, HorizonSeconds: 1148.8778859528645,
	Decisions: 2681, Deferred: 715, Flushes: 490, Batches: 2450, Rows: 35750,
	MaxBatchRows: 50, MeanBatchRows: 14.591836734693878,
}

// TestFleetStatsGolden pins the FleetDayStats the daily loop checkpoints
// for one fixed fleet trial to constants captured at an earlier commit. The
// other fleet tests compare runs of one build against each other; this one
// fails when a change moves which decisions share a tick window (a calendar
// that pops out of time order changes the flush and batch counts) or how
// the service counts them. It cannot see the order of equal-time events:
// those always share a window, and a flush's counts do not depend on the
// order its rows were enqueued in.
func TestFleetStatsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("math.Exp is a different implementation off amd64")
	}
	_, st, err := RunTrial(deployTrial(testTTP(17), 24, 19),
		Config{ShardSize: 8, Workers: 2, Tick: 0.25, Arrivals: BurstArrivals{Burst: 8, Gap: 20}})
	if err != nil {
		t.Fatal(err)
	}
	if st.FleetDayStats != goldenFleetStats {
		t.Errorf("fleet stats = %+v, want %+v", st.FleetDayStats, goldenFleetStats)
	}
}
