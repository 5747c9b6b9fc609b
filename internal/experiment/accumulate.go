package experiment

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"puffer/internal/stats"
)

// SchemeAcc is one scheme's mergeable analysis state: the CONSORT counters
// plus the per-stream series the estimators need. Shards (and days, in the
// continual runner) each accumulate privately, then merge in a deterministic
// order; the bootstrap runs once on the merged state. Fields are exported so
// accumulators can be checkpointed with gob.
type SchemeAcc struct {
	Name string

	Sessions    int
	Streams     int
	NeverPlayed int
	ShortWatch  int
	BadDecoder  int
	Considered  int

	Points    stats.StreamAcc   // (watch, stall) per considered stream
	SSIM      stats.WeightedAcc // SSIM weighted by watch time
	Startup   stats.WeightedAcc
	FirstSSIM stats.WeightedAcc
	Duration  stats.WeightedAcc

	VarSum float64
	VarN   int
	BrSum  float64
	BrN    int
}

// Merge folds another scheme accumulator into this one.
func (a *SchemeAcc) Merge(b *SchemeAcc) {
	a.Sessions += b.Sessions
	a.Streams += b.Streams
	a.NeverPlayed += b.NeverPlayed
	a.ShortWatch += b.ShortWatch
	a.BadDecoder += b.BadDecoder
	a.Considered += b.Considered
	a.Points.Merge(&b.Points)
	a.SSIM.Merge(&b.SSIM)
	a.Startup.Merge(&b.Startup)
	a.FirstSSIM.Merge(&b.FirstSSIM)
	a.Duration.Merge(&b.Duration)
	a.VarSum += b.VarSum
	a.VarN += b.VarN
	a.BrSum += b.BrSum
	a.BrN += b.BrN
}

// TrialAcc accumulates per-scheme analysis state for one analysis filter:
// fold sessions in with AddSession, merge shards with Merge, and call
// Analyze once at the end. It is what every trial returns; no engine keeps
// a whole day of sessions.
type TrialAcc struct {
	Filter  AnalysisFilter
	Schemes map[string]*SchemeAcc
}

// NewTrialAcc returns an empty accumulator for the given filter.
func NewTrialAcc(filter AnalysisFilter) *TrialAcc {
	return &TrialAcc{Filter: filter, Schemes: make(map[string]*SchemeAcc)}
}

// scheme returns (creating if needed) the accumulator for a scheme name.
func (t *TrialAcc) scheme(name string) *SchemeAcc {
	a, ok := t.Schemes[name]
	if !ok {
		a = &SchemeAcc{Name: name}
		t.Schemes[name] = a
	}
	return a
}

// trialAccWire is the deterministic gob form of TrialAcc: the scheme
// accumulators as a name-sorted slice. Encoding the Schemes map directly
// would write it in Go's randomized map iteration order, making the
// checkpointed acc.gob bytes vary run to run even for identical results.
type trialAccWire struct {
	Filter  AnalysisFilter
	Schemes []SchemeAcc
}

// GobEncode implements gob.GobEncoder with byte-reproducible output:
// encoding the same accumulator state always yields the same bytes, so
// checkpoint trees can be compared with cmp/diff.
func (t *TrialAcc) GobEncode() ([]byte, error) {
	w := trialAccWire{Filter: t.Filter}
	for _, name := range sortedSchemeNames(t.Schemes) {
		w.Schemes = append(w.Schemes, *t.Schemes[name])
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// GobDecode implements gob.GobDecoder for the wire form above.
func (t *TrialAcc) GobDecode(b []byte) error {
	var w trialAccWire
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&w); err != nil {
		return err
	}
	t.Filter = w.Filter
	t.Schemes = make(map[string]*SchemeAcc, len(w.Schemes))
	for i := range w.Schemes {
		a := w.Schemes[i]
		t.Schemes[a.Name] = &a
	}
	return nil
}

// AddSession folds one session's streams into the accumulator, applying the
// paper's eligibility exclusions and the filter. The session itself can be
// discarded afterwards.
func (t *TrialAcc) AddSession(sess *SessionResult) {
	a := t.scheme(sess.Scheme)
	a.Sessions++
	a.Duration.AddUnit(sess.Duration)
	for _, s := range sess.Streams {
		a.Streams++
		switch {
		case s.BadDecoder:
			a.BadDecoder++
			continue
		case s.NeverPlayed:
			a.NeverPlayed++
			continue
		case s.WatchTime() < 4:
			a.ShortWatch++
			continue
		}
		if t.Filter == SlowPaths && !s.SlowPath() {
			continue
		}
		a.Considered++
		a.Points.Add(stats.StreamPoint{Watch: s.WatchTime(), Stall: s.StallTime})
		a.SSIM.Add(s.SSIMMean, s.WatchTime())
		if s.Chunks > 1 {
			a.VarSum += s.SSIMVar
			a.VarN++
		}
		if s.MeanBitrate > 0 {
			a.BrSum += s.MeanBitrate
			a.BrN++
		}
		a.Startup.AddUnit(s.StartupDelay)
		a.FirstSSIM.AddUnit(s.FirstChunkSSIM)
	}
}

// Merge folds another trial accumulator into this one. Callers must merge in
// a deterministic order (shard order, day order) for reproducible results.
func (t *TrialAcc) Merge(o *TrialAcc) {
	for _, name := range sortedSchemeNames(o.Schemes) {
		t.scheme(name).Merge(o.Schemes[name])
	}
}

// Analyze runs the merge-then-bootstrap path: per-scheme statistics with
// bootstrap confidence intervals over the accumulated streams. The bootstrap
// RNG is seeded per (seed, scheme name) so analyses are reproducible and
// every scheme's resampling is independent.
func (t *TrialAcc) Analyze(seed int64) []SchemeStats {
	names := sortedSchemeNames(t.Schemes)
	out := make([]SchemeStats, 0, len(names))
	for _, name := range names {
		a := t.Schemes[name]
		st := SchemeStats{
			Name:     name,
			Sessions: a.Sessions, Streams: a.Streams,
			NeverPlayed: a.NeverPlayed, ShortWatch: a.ShortWatch,
			BadDecoder: a.BadDecoder, Considered: a.Considered,
			WatchYears: a.Points.StreamYears(),
		}
		rng := rand.New(rand.NewSource(mix(seed, nameSeed(name))))
		st.StallRatio = a.Points.Bootstrap(rng, 400, 0.95)
		st.SSIM = a.SSIM.Interval(0.95)
		if a.VarN > 0 {
			st.SSIMVar = a.VarSum / float64(a.VarN)
		}
		if a.BrN > 0 {
			st.MeanBitrate = a.BrSum / float64(a.BrN)
		}
		st.MeanStartup = a.Startup.Interval(0.95)
		st.MeanFirstSSIM = a.FirstSSIM.Interval(0.95)
		st.MeanDuration = a.Duration.Interval(0.95)
		out = append(out, st)
	}
	return out
}

// DefaultShardSize is the sessions-per-shard every engine uses when none is
// given. Shard boundaries fix the merge order of the running sums, so the
// scenario spec's default, the runner's and the fleet engine's all read it.
const DefaultShardSize = 64

// NumShards returns the shard count for n sessions at the given shard size.
func NumShards(n, shardSize int) int {
	return (n + shardSize - 1) / shardSize
}

// ShardRange returns shard s's session-id range [lo, hi).
func ShardRange(n, shardSize, s int) (lo, hi int) {
	lo, hi = s*shardSize, (s+1)*shardSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// FoldShards builds the canonical sharded aggregate every execution engine
// must replicate for byte-identical pooled statistics: per-shard
// accumulators fold sessions in ascending-id order (fetched via get, which
// may compute the session or read a finished result) and merge in shard
// order.
func FoldShards(n, shardSize int, filter AnalysisFilter, get func(id int) *SessionResult) *TrialAcc {
	total := NewTrialAcc(filter)
	for s := 0; s < NumShards(n, shardSize); s++ {
		lo, hi := ShardRange(n, shardSize, s)
		acc := NewTrialAcc(filter)
		for id := lo; id < hi; id++ {
			acc.AddSession(get(id))
		}
		total.Merge(acc)
	}
	return total
}

// FoldShard runs sessions [lo, hi) of the trial and folds them into a
// fresh accumulator in id order — the shard unit of FoldShards, exposed
// separately so worker pools can compute shards in parallel and merge in
// shard order themselves.
func (cfg *Config) FoldShard(lo, hi int, filter AnalysisFilter) *TrialAcc {
	acc := NewTrialAcc(filter)
	for id := lo; id < hi; id++ {
		sess := cfg.RunOne(id)
		acc.AddSession(&sess)
	}
	return acc
}

// RunSharded is the session engine: the trial's sessions sharded across a
// worker pool. Each shard folds its sessions into a private TrialAcc — one
// live SessionResult per worker, never a materialized day — and shards
// merge in shard order so the aggregate is independent of scheduling.
// Shard boundaries and fold order come from ShardRange/FoldShard, the
// canonical aggregation the fleet and dist engines replicate for
// byte-identical pooled stats. filter selects the streams the accumulator
// keeps (AllPaths, or SlowPaths for the Figure 8 right-hand panel).
// workers <= 0 means GOMAXPROCS.
func (cfg *Config) RunSharded(shardSize, workers int, filter AnalysisFilter) (*TrialAcc, error) {
	if len(cfg.Schemes) == 0 {
		return nil, fmt.Errorf("experiment: no schemes configured")
	}
	if cfg.Sessions <= 0 {
		return nil, fmt.Errorf("experiment: Sessions = %d, must be positive", cfg.Sessions)
	}
	if shardSize <= 0 {
		return nil, fmt.Errorf("experiment: shard size = %d, must be positive", shardSize)
	}
	nShards := NumShards(cfg.Sessions, shardSize)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nShards {
		workers = nShards
	}
	accs := make([]*TrialAcc, nShards)
	shards := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range shards {
				lo, hi := ShardRange(cfg.Sessions, shardSize, s)
				accs[s] = cfg.FoldShard(lo, hi, filter)
			}
		}()
	}
	for s := 0; s < nShards; s++ {
		shards <- s
	}
	close(shards)
	wg.Wait()

	total := NewTrialAcc(filter)
	for _, acc := range accs {
		total.Merge(acc)
	}
	return total, nil
}

// sortedSchemeNames returns map keys in deterministic (sorted) order.
func sortedSchemeNames(m map[string]*SchemeAcc) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
