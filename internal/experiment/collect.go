package experiment

import (
	"sort"
	"sync"

	"puffer/internal/core"
)

// DatasetCollector accumulates per-stream chunk observations into a
// core.Dataset for TTP training. Safe for concurrent use.
type DatasetCollector struct {
	mu      sync.Mutex
	streams map[int][]core.ChunkObs
}

// NewDatasetCollector returns an empty collector.
func NewDatasetCollector() *DatasetCollector {
	return &DatasetCollector{streams: make(map[int][]core.ChunkObs)}
}

// RecordChunk implements Recorder.
func (c *DatasetCollector) RecordChunk(day int, streamKey int, obs core.ChunkObs) {
	c.mu.Lock()
	c.streams[streamKey] = append(c.streams[streamKey], obs)
	c.mu.Unlock()
}

// Dataset materializes the collected telemetry. Stream order is
// deterministic (sorted by key) so downstream training is reproducible.
func (c *DatasetCollector) Dataset() *core.Dataset {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]int, 0, len(c.streams))
	for k := range c.streams {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	d := &core.Dataset{}
	for _, k := range keys {
		d.Streams = append(d.Streams, core.StreamObs{Chunks: c.streams[k]})
	}
	return d
}

// Merge folds another collector's streams into this one (used when
// accumulating days of telemetry).
func (c *DatasetCollector) Merge(other *core.Dataset, keyOffset int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, s := range other.Streams {
		c.streams[keyOffset+i] = append([]core.ChunkObs(nil), s.Chunks...)
	}
}

// CollectDataset runs sessions randomized across the behavior schemes in
// env and returns the telemetry dataset — how Fugu's training data is
// gathered "in situ" (from the deployment's own mixture of traffic) or
// "in emulation" (from EmulationEnv). The collector is keyed by stream, so
// the dataset does not depend on how sessions are sharded; one-session
// shards keep every worker busy on small collections.
func CollectDataset(env Env, schemes []Scheme, sessions int, seed int64, day int) (*core.Dataset, error) {
	col := NewDatasetCollector()
	cfg := Config{
		Env:      env,
		Schemes:  schemes,
		Sessions: sessions,
		Seed:     seed,
		Day:      day,
		Recorder: col,
	}
	if _, err := cfg.RunSharded(1, 0, AllPaths); err != nil {
		return nil, err
	}
	return col.Dataset(), nil
}
