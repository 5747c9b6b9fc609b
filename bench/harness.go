package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"puffer/internal/obs"
)

// procs is the harness's one parallelism figure: GOMAXPROCS, engine
// workers, dist worker processes and load connections. It is fixed so that
// a number measured on one box is comparable with the same number measured
// on another with at least this many cores.
const procs = 2

// config is one invocation's knobs, straight from the flags.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool
	// dir is the scratch directory (inside the checkout) for checkpoint
	// trees; out is where the traced pass writes its span file; exe is this
	// binary, re-exec'd as the dist worker.
	dir string
	out string
	exe string
	// rec records the bench's own spans in the traced pass; nil otherwise.
	rec *recorder
}

// minRepeats is the fewest timed repeats a median is taken over.
func (c config) minRepeats() int {
	if c.short {
		return 1
	}
	return 3
}

// setups is how many times set-up runs, so setup_s is a median too: at least
// lo times, and on until setupSeconds have gone or hi is reached, so that a
// set-up of half a second, whose single readings scatter most, gives its
// median more of them.
func (c config) setups() (lo, hi int) {
	if c.short || c.trace {
		return 1, 1
	}
	return 3, 7
}

const setupSeconds = 3.0

// repeatOut is what one pass through a front door produced.
type repeatOut struct {
	// digest is the outcome digest of the pass.
	digest string
	// attempted and failed count the pass's operations (sessions; shards
	// and shard retries on daily-dist).
	attempted, failed int
	// wall overrides the harness stopwatch when the program times itself
	// (LoadResult.WallSeconds); 0 means use the harness's.
	wall float64
}

// reference is the untimed verify phase's answer: what the outputs must
// be, and the deterministic per-repeat constants the metrics divide by.
type reference struct {
	digest    string
	sessions  int
	decisions int64
}

// workload is one named benchmark workload. setup builds everything from
// the seed (and may run more than once; the last one stands); prep is
// untimed per-repeat housekeeping; repeat is the timed pass through the
// program's front door; verify recomputes the expected outputs
// independently; layers is the traced pass's per-layer measurement.
type workload interface {
	sizes() map[string]int
	setup() error
	prep() error
	repeat() (repeatOut, error)
	verify() (reference, error)
	// info returns readings only this workload has (unbounded).
	info(samples []sample) []summary
	layers(lp *layerPass) error
	close()
}

// sample is the harness's measurement of one timed repeat.
type sample struct {
	wall, cpu float64
	// steal is the time the host ran something else on this machine's cores
	// while the repeat wanted them, summed over the cores.
	steal   float64
	mallocs uint64
	// rtt is the load generator's round trips during the repeat (empty on
	// workloads that serve nothing over the wire).
	rtt obs.HistSnapshot
	out repeatOut
}

// result is one workload run: the contract's verdict fields, every metric
// with its spread, and the environment it was taken in.
type result struct {
	Workload    string    `json:"workload"`
	Trace       bool      `json:"trace"`
	Correct     bool      `json:"correct"`
	Attempted   int       `json:"ops_attempted"`
	Failed      int       `json:"ops_failed"`
	FailedShare float64   `json:"failed_share"`
	Digest      string    `json:"outcome_digest"`
	Problems    []string  `json:"problems,omitempty"`
	Metrics     []summary `json:"metrics"`
	// Info holds readings printed beside the end-to-end metrics but not
	// bounded: they depend on the seed's population (sessions_per_s), on
	// collector timing (peak_rss_mb), or exist on one workload only.
	Info []summary `json:"info"`
	// Quiet and StealS say how disturbed the run was: how many of the timed
	// repeats the metrics were taken over, and the host steal during all.
	Quiet     int                `json:"quiet_repeats"`
	StealS    float64            `json:"host_steal_s"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	Budget    []budgetRow        `json:"budget,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
	Env       envBlock           `json:"env"`
}

// cpuSeconds is the process's and its reaped children's CPU time so far.
func cpuSeconds() float64 {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	var self, kids syscall.Rusage
	// Getrusage cannot fail for these two constants.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)
}

// peakRSSMB is this process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var self syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	return float64(self.Maxrss) / 1024
}

// hostSteal is the machine's steal time so far, in seconds over all cores
// (0 where the kernel reports none).
func hostSteal() float64 {
	stat, _ := os.ReadFile("/proc/stat")
	return stealSeconds(string(stat))
}

// stealSeconds reads the steal figure of /proc/stat's first line: the eighth
// after "cpu", in hundredths of a second.
func stealSeconds(stat string) float64 {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, _ := strconv.ParseFloat(f[8], 64)
	return ticks / 100
}

// quietShare is the most steal, as a share of a repeat's wall time on procs
// cores, that still counts as an undisturbed repeat.
const quietShare = 0.01

func (s sample) stealShare() float64 { return s.steal / (s.wall * procs) }

// quiet picks the repeats the timing metrics are taken over: those the host
// left alone. This machine is a few cores of a shared host, and a repeat
// during which the host took the cores away measures the neighbours (a
// closed loop most of all: each side waits out the other's stall). Choosing
// by steal time chooses by the disturbance, not by the outcome. When fewer
// than atLeast repeats were quiet, the atLeast least disturbed stand in.
func quiet(samples []sample, atLeast int) []sample {
	byShare := append([]sample(nil), samples...)
	sort.SliceStable(byShare, func(i, j int) bool { return byShare[i].stealShare() < byShare[j].stealShare() })
	n := 0
	for n < len(byShare) && byShare[n].stealShare() <= quietShare {
		n++
	}
	return byShare[:min(max(n, atLeast), len(byShare))]
}

// timeRepeat runs prep untimed, then one repeat under the stopwatches.
func timeRepeat(w workload) (sample, error) {
	if err := w.prep(); err != nil {
		return sample{}, err
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rtt0, st0 := clientRTT(), hostSteal()
	c0, t0 := cpuSeconds(), time.Now()
	out, err := w.repeat()
	s := sample{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - c0, out: out}
	s.steal, s.rtt = hostSteal()-st0, clientRTT().Sub(rtt0)
	runtime.ReadMemStats(&m1)
	s.mallocs = m1.Mallocs - m0.Mallocs
	if out.wall > 0 {
		s.wall = out.wall
	}
	return s, err
}

// runWorkload is one full run of one workload: set-up, warm-up, timed
// repeats, verification, and in the traced pass the per-layer measurements.
func runWorkload(cfg config) (*result, error) {
	if cfg.trace {
		cfg.rec = &recorder{repeat: -1}
	}
	// Workloads (and the traced pass) set the process-wide recording gate
	// and tracer; leave them as they were found.
	defer func(on bool) {
		obs.SetTracer(nil)
		obs.SetEnabled(on)
	}(obs.Enabled())
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	defer w.close()
	res := &result{Workload: cfg.workload, Trace: cfg.trace}

	var setupS []float64
	lo, hi := cfg.setups()
	for start := time.Now(); len(setupS) < lo || (len(setupS) < hi && time.Since(start).Seconds() < setupSeconds); {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	if !cfg.short {
		if _, err := timeRepeat(w); err != nil {
			return nil, fmt.Errorf("%s: warm-up: %w", cfg.workload, err)
		}
	}

	var samples []sample
	var lp *layerPass
	if cfg.trace {
		// One untraced reference repeat, then two traced ones: their CPU
		// difference is the tracing overhead.
		ref, err := timeRepeat(w)
		if err != nil {
			return nil, fmt.Errorf("%s: reference repeat: %w", cfg.workload, err)
		}
		lp = newLayerPass(cfg, ref)
		for i := 0; i < 2; i++ {
			lp.rec.repeat = lp.rec.begin("repeat", lp.root, i)
			s, err := timeRepeat(w)
			lp.rec.end(lp.rec.repeat)
			lp.rec.repeat = -1
			if err != nil {
				return nil, fmt.Errorf("%s: traced repeat %d: %w", cfg.workload, i, err)
			}
			samples = append(samples, s)
		}
		lp.traced = samples
	} else {
		start := time.Now()
		for len(samples) < cfg.minRepeats() || (!cfg.short && time.Since(start).Seconds() < cfg.seconds) {
			s, err := timeRepeat(w)
			if err != nil {
				return nil, fmt.Errorf("%s: repeat %d: %w", cfg.workload, len(samples), err)
			}
			samples = append(samples, s)
		}
	}

	ref, err := w.verify()
	if err != nil {
		return nil, fmt.Errorf("%s: verify: %w", cfg.workload, err)
	}
	judge(res, ref, samples)
	calm := quiet(samples, cfg.minRepeats())
	res.Metrics, res.Info = endToEndMetrics(ref, calm, setupS)
	res.Info = append(res.Info, w.info(calm)...)
	res.Env = environment(cfg, w.sizes(), len(samples))
	res.Quiet = len(calm)
	for _, s := range samples {
		res.StealS += s.steal
	}

	if cfg.trace {
		if err := w.layers(lp); err != nil {
			return nil, fmt.Errorf("%s: layers: %w", cfg.workload, err)
		}
		if err := lp.finish(res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// judge compares every repeat's outputs with the reference and fills the
// verdict: a repeat whose digest differs fails all of its operations.
func judge(res *result, ref reference, samples []sample) {
	res.Digest = ref.digest
	for i, s := range samples {
		res.Attempted += s.out.attempted
		failed := s.out.failed
		if s.out.digest != ref.digest {
			res.Problems = append(res.Problems, fmt.Sprintf(
				"repeat %d: outcome digest %.12s differs from the reference %.12s", i, s.out.digest, ref.digest))
			failed = s.out.attempted
		} else if failed > 0 {
			res.Problems = append(res.Problems, fmt.Sprintf("repeat %d: %d of %d operations failed", i, failed, s.out.attempted))
		}
		res.Failed += failed
	}
	if res.Attempted > 0 {
		res.FailedShare = float64(res.Failed) / float64(res.Attempted)
	}
	res.Correct = len(res.Problems) == 0 && res.Attempted > 0
}

// endToEndMetrics turns the quiet timed repeats into the end-to-end table.
// The decision latency percentiles are each repeat's own, from the load
// generator's stopwatch where one exists (serve-closed); elsewhere no
// per-decision stopwatch is visible from outside the front door, and the
// mean wall time per decision stands in, so the pair moves exactly with
// decisions_per_s.
func endToEndMetrics(ref reference, samples []sample, setupS []float64) (bounded, info []summary) {
	n := float64(ref.decisions)
	var sessPS, decPS, cpuUS, allocs, p25, p90 []float64
	for _, s := range samples {
		sessPS = append(sessPS, float64(ref.sessions)/s.wall)
		decPS = append(decPS, n/s.wall)
		cpuUS = append(cpuUS, s.cpu*1e6/n)
		allocs = append(allocs, float64(s.mallocs)/n)
		if s.rtt.Count > 0 {
			p25 = append(p25, histQuantile(s.rtt, 0.25)/1e3)
			p90 = append(p90, histQuantile(s.rtt, 0.9)/1e3)
		} else {
			p25 = append(p25, s.wall*1e6/n)
			p90 = append(p90, s.wall*1e6/n)
		}
	}
	return []summary{
			summarize("setup_s", "s", setupS),
			summarize("decisions_per_s", "1/s", decPS),
			summarize("cpu_us_per_decision", "us", cpuUS),
			summarize("allocs_per_decision", "count", allocs),
			summarize("decision_p25_us", "us", p25),
			summarize("decision_p90_us", "us", p90),
		}, []summary{
			summarize("sessions_per_s", "1/s", sessPS),
			summarize("peak_rss_mb", "MB", []float64{peakRSSMB()}),
		}
}

// clientRTT snapshots the load generator's round-trip histogram (empty on
// workloads that serve nothing over the wire).
func clientRTT() obs.HistSnapshot {
	return obs.Default.Histogram("serve_client_rtt_ns").Snapshot()
}
