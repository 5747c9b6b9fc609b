package fleet

import (
	"fmt"
	"math/rand"
	"testing"

	"puffer/internal/core"
	"puffer/internal/experiment"
	"puffer/internal/obs"
)

// coreDefaultTTP is the paper-shaped TTP (22-64-64-21 per horizon step).
func coreDefaultTTP() *core.TTP {
	return core.NewTTP(rand.New(rand.NewSource(1)), core.DefaultHorizon, nil,
		core.DefaultFeatures(), core.KindTransTime)
}

// BenchmarkFleetThroughput races the two execution engines on the same
// deploy-mixture trial at equal worker count: the per-session engine
// (experiment.Config.RunSharded — each session to completion, inference
// batched only within a decision) against the fleet engine (interleaved
// sessions, inference batched across sessions through the inference
// service). Both run the same packed kernel on the same cached snapshots
// (nn.MLP.Packed), so the sessions/sec metrics compare scheduling and
// batching only. 128 sessions in shards of 8 are 16 shards: eight per
// worker at the largest worker count, enough to keep every worker busy.
func BenchmarkFleetThroughput(b *testing.B) {
	ttp := coreDefaultTTP()
	const sessions, shard = 128, 8
	report := func(b *testing.B) {
		b.ReportMetric(float64(sessions)*float64(b.N)/b.Elapsed().Seconds(), "sessions/sec")
	}
	for _, workers := range []int{1, 2} {
		fleetRun := func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, err := RunTrial(deployTrial(ttp, sessions, 77), Config{
					ShardSize: shard, Workers: workers, Tick: 1,
					Arrivals: PoissonArrivals{Rate: 4},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			report(b)
		}
		b.Run(benchLabel("per-session", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := deployTrial(ttp, sessions, 77).RunSharded(shard, workers, experiment.AllPaths); err != nil {
					b.Fatal(err)
				}
			}
			report(b)
		})
		b.Run(benchLabel("fleet", workers), fleetRun)
		// Identical workload with metric recording on: the cost of the
		// observability layer on the hot path (decision timers, batch
		// histograms, packed-kernel timers). Compare sessions/sec against
		// the plain fleet variant — the contract budgets <2% regression.
		b.Run(benchLabel("fleet-obs", workers), func(b *testing.B) {
			obs.SetEnabled(true)
			defer obs.SetEnabled(false)
			fleetRun(b)
		})
	}
}

func benchLabel(engine string, workers int) string {
	return fmt.Sprintf("%s/w%d", engine, workers)
}
