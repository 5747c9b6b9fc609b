package fleet

import (
	"math/rand"
	"runtime"
	"sync"
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

// runSeqWorkers is the per-session engine exactly as the daily runner
// shards it: a worker pool over shards, each folding its sessions to
// completion in id order via the canonical shard helpers.
func runSeqWorkers(trial *experiment.Config, shardSize, workers int) (*experiment.TrialAcc, error) {
	nShards := experiment.NumShards(trial.Sessions, shardSize)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nShards {
		workers = nShards
	}
	accs := make([]*experiment.TrialAcc, nShards)
	shards := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range shards {
				lo, hi := experiment.ShardRange(trial.Sessions, shardSize, s)
				accs[s] = trial.FoldShard(lo, hi, experiment.AllPaths)
			}
		}()
	}
	for s := 0; s < nShards; s++ {
		shards <- s
	}
	close(shards)
	wg.Wait()
	total := experiment.NewTrialAcc(experiment.AllPaths)
	for _, acc := range accs {
		total.Merge(acc)
	}
	return total, nil
}

// BenchmarkFleetThroughput races the two execution engines on the same
// deploy-mixture trial at equal worker count: the per-session engine (each
// session to completion, inference batched only within a decision) against
// the fleet engine (interleaved sessions, inference batched across sessions
// through the inference service). Both run the same packed kernel on the
// same cached snapshots (nn.MLP.Packed), so the sessions/sec metrics
// compare scheduling and batching only — and 24 sessions in shards of 8
// cannot keep two fleet workers busy (ROADMAP item 1).
func BenchmarkFleetThroughput(b *testing.B) {
	ttp := coreDefaultTTP()
	const sessions, shard = 24, 8
	for _, workers := range []int{1, 2} {
		b.Run(benchLabel("per-session", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trial := deployTrial(ttp, sessions, 77)
				trial.Workers = workers
				if _, err := runSeqWorkers(trial, shard, workers); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sessions)*float64(b.N)/b.Elapsed().Seconds(), "sessions/sec")
		})
		b.Run(benchLabel("fleet", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trial := deployTrial(ttp, sessions, 77)
				_, _, err := RunTrial(trial, Config{
					ShardSize: shard, Workers: workers, Tick: 1,
					Arrivals: PoissonArrivals{Rate: 4},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sessions)*float64(b.N)/b.Elapsed().Seconds(), "sessions/sec")
		})
		// Identical workload with metric recording on: the cost of the
		// observability layer on the hot path (decision timers, batch
		// histograms, packed-kernel timers). Compare sessions/sec against
		// the plain fleet variant — the contract budgets <2% regression.
		b.Run(benchLabel("fleet-obs", workers), func(b *testing.B) {
			obs.SetEnabled(true)
			defer obs.SetEnabled(false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				trial := deployTrial(ttp, sessions, 77)
				_, _, err := RunTrial(trial, Config{
					ShardSize: shard, Workers: workers, Tick: 1,
					Arrivals: PoissonArrivals{Rate: 4},
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sessions)*float64(b.N)/b.Elapsed().Seconds(), "sessions/sec")
		})
	}
}

func benchLabel(engine string, workers int) string {
	if workers == 1 {
		return engine + "/w1"
	}
	return engine + "/w2"
}
