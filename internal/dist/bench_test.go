package dist

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"puffer/internal/experiment"
)

// BenchmarkDistDay races one full day of the deploy-mixture trial through
// the in-process session engine (experiment.Config.RunSharded) against the
// dist pool's worker processes, at equal parallelism. The gap is the
// protocol's whole overhead budget: process spawn (amortized across b.N —
// workers persist), model broadcast, blob serialization, and the
// coordinator's merge. sessions/sec is the headline; the per-op delta vs
// session is what a dist deployment pays for process isolation.
func BenchmarkDistDay(b *testing.B) {
	sp := testSpec{Sessions: 24, ShardSize: 8, BaseSeed: 77}
	const workers = 2
	model := testModel()

	b.Run("session/w2", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			trial := testTrial(sp, 0, model)
			col := experiment.NewDatasetCollector()
			trial.Recorder = col
			if _, err := trial.RunSharded(sp.ShardSize, workers, experiment.AllPaths); err != nil {
				b.Fatal(err)
			}
			col.Dataset()
		}
		b.ReportMetric(float64(sp.Sessions)*float64(b.N)/b.Elapsed().Seconds(), "sessions/sec")
	})

	b.Run("dist/w2", func(b *testing.B) {
		spec, err := json.Marshal(sp)
		if err != nil {
			b.Fatal(err)
		}
		b.Setenv("PUFFER_DIST_TEST_MODE", "worker")
		p, err := NewPool(PoolConfig{
			Workers:      workers,
			Command:      []string{os.Args[0]},
			Spec:         spec,
			ShardTimeout: time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer p.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := p.RunDay(0, model, sp.Sessions, sp.ShardSize); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(sp.Sessions)*float64(b.N)/b.Elapsed().Seconds(), "sessions/sec")
	})
}

// BenchmarkShardBlob isolates the transport cost the dist engine adds per
// shard: encoding one shard's accumulator + telemetry into the wire blob
// and decoding it back.
func BenchmarkShardBlob(b *testing.B) {
	sp := testSpec{Sessions: 8, ShardSize: 8, BaseSeed: 77}
	trial := testTrial(sp, 0, nil)
	col := experiment.NewDatasetCollector()
	trial.Recorder = col
	acc := trial.FoldShard(0, sp.Sessions, experiment.AllPaths)
	data := col.Dataset()
	blob, err := EncodeShard(acc, data)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := EncodeShard(acc, data); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(blob)), "blob_bytes")
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := DecodeShard(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
}
