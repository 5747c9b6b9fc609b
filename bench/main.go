package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"puffer/internal/scenario"
)

// distWorkerFlag is the hidden argv the dist engine launches this binary
// with; the process then speaks the worker protocol on stdin/stdout.
const distWorkerFlag = "-dist-worker"

func main() {
	if len(os.Args) > 1 && os.Args[1] == distWorkerFlag {
		if err := scenario.ServeDistWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench: dist worker:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadArg = fs.String("workload", "", "run one workload in this process (default: every workload, each in its own child)")
		seed        = fs.Int64("seed", 7, "workload seed: becomes the spec seed; the program sees only the generated inputs")
		seconds     = fs.Float64("seconds", 22, "how long the timed repeats measure (at least three repeats run regardless)")
		trace       = fs.Int("trace", 0, "1 = the traced pass: per-layer metrics and bench/out/trace-<workload>.json")
		selfcheck   = fs.Bool("selfcheck", false, "run two full sets A and B (five alternating runs of every workload each) and fail unless every median of B is within its bound of A")
		short       = fs.Bool("short", false, "1/20 scale, one repeat: a smoke, not a measurement")
		full        = fs.Bool("full", false, "internal: end with the full result JSON instead of the contract line")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if runtime.NumCPU() < procs {
		return fmt.Errorf("needs at least %d cores, this machine has %d", procs, runtime.NumCPU())
	}
	runtime.GOMAXPROCS(procs)
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cfg := config{workload: *workloadArg, seed: *seed, seconds: *seconds, trace: *trace != 0, short: *short,
		exe: exe, out: filepath.Join("bench", "out")}

	switch {
	case *selfcheck:
		return selfCheck(cfg, stdout)
	case cfg.workload == "":
		return runAll(cfg, stdout)
	}

	// Checkpoint trees live in a per-process directory inside the checkout.
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	if cfg.dir, err = os.MkdirTemp(".bench_build", "run-"); err != nil {
		return err
	}
	defer os.RemoveAll(cfg.dir)
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	printResult(stdout, res)
	if *full {
		err = json.NewEncoder(stdout).Encode(res)
	} else {
		err = json.NewEncoder(stdout).Encode(contractLine(res))
	}
	if err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: outputs are wrong: %s", res.Workload, strings.Join(res.Problems, "; "))
	}
	return nil
}

// metricValue is one metric of the driver-facing result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the driver-facing result: exactly correct, attempted,
// failed and metrics; the end-to-end metrics untraced, the per-layer ones
// traced.
func contractLine(res *result) map[string]any {
	metrics := map[string]metricValue{}
	if res.Trace {
		for _, d := range perLayer {
			metrics[d.Name] = metricValue{res.Layers[d.Name], d.Unit}
		}
	} else {
		for _, m := range res.Metrics {
			metrics[m.Name] = metricValue{m.Median, m.Unit}
		}
	}
	return map[string]any{"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics}
}

// runChild runs one workload in a re-exec'd child of this binary and
// decodes the full result from the last line of its stdout; everything the
// child printed before that is relayed to progress.
func runChild(cfg config, workload string, trace bool, progress io.Writer) (*result, error) {
	t := "0"
	if trace {
		t = "1"
	}
	args := []string{"-full", "-workload", workload, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", t}
	if cfg.short {
		args = append(args, "-short")
	}
	cmd := exec.Command(cfg.exe, args...)
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	out = bytes.TrimRight(out, "\n")
	cut := bytes.LastIndexByte(out, '\n') + 1
	progress.Write(out[:cut])
	var res result
	if err := json.Unmarshal(out[cut:], &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: child printed no result: %w", workload, err)
	}
	return &res, nil
}

// runSet runs every workload once, each in its own child.
func runSet(cfg config, trace bool, progress io.Writer) ([]*result, error) {
	var set []*result
	for _, w := range workloadNames {
		res, err := runChild(cfg, w, trace, progress)
		if err != nil {
			return nil, err
		}
		set = append(set, res)
	}
	return set, nil
}

// crossCheck is the check no single workload can make: the three engines
// ran the same deploy day, so their outcome digests must be one digest.
func crossCheck(set []*result) []string {
	var problems []string
	var daily *result
	for _, r := range set {
		for _, p := range r.Problems {
			problems = append(problems, r.Workload+": "+p)
		}
		if !r.Correct && len(r.Problems) == 0 {
			problems = append(problems, r.Workload+": no operation was attempted")
		}
		if !strings.HasPrefix(r.Workload, "daily-") {
			continue
		}
		if daily == nil {
			daily = r
		} else if r.Digest != daily.Digest {
			problems = append(problems, fmt.Sprintf("%s and %s ran the same day to different outcomes (%.12s vs %.12s)",
				daily.Workload, r.Workload, daily.Digest, r.Digest))
		}
	}
	return problems
}

// runAll is the default mode: the end-to-end pass over every workload and,
// with -trace 1, the traced pass after it.
func runAll(cfg config, stdout io.Writer) error {
	set, err := runSet(cfg, false, stdout)
	if err != nil {
		return err
	}
	problems := crossCheck(set)
	if cfg.trace {
		traced, err := runSet(cfg, true, stdout)
		if err != nil {
			return err
		}
		for _, r := range traced {
			for _, p := range r.Problems {
				problems = append(problems, r.Workload+" (traced): "+p)
			}
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("output checks failed:\n  %s", strings.Join(problems, "\n  "))
	}
	fmt.Fprintln(stdout, "all output checks passed")
	return nil
}

// selfCheckRounds is how many runs of each workload make one set. One run
// against one run cannot hold a 25% bound on a host whose speed drifts by
// that much in a minute; the median of five, with the two sets' runs
// alternating so that they share the drift, can.
const selfCheckRounds = 5

// setEntry is one workload of one self-check set: every reading summarized
// over the set's runs (each run contributes its own median).
type setEntry struct {
	Workload string    `json:"workload"`
	Digest   string    `json:"outcome_digest"`
	Metrics  []summary `json:"metrics"`
	Info     []summary `json:"info"`
	Env      envBlock  `json:"env"`
}

// summarizeRuns folds the runs of one workload into a set entry.
func summarizeRuns(runs []*result) setEntry {
	e := setEntry{Workload: runs[0].Workload, Digest: runs[0].Digest, Env: runs[0].Env}
	over := func(pick func(*result) []summary) (out []summary) {
		for i, m := range pick(runs[0]) {
			var xs []float64
			for _, r := range runs {
				xs = append(xs, pick(r)[i].Median)
			}
			out = append(out, summarize(m.Name, m.Unit, xs))
		}
		return out
	}
	e.Metrics = over(func(r *result) []summary { return r.Metrics })
	e.Info = over(func(r *result) []summary { return r.Info })
	return e
}

// selfCheck runs two full sets A and B of the same commit, selfCheckRounds
// runs of every workload each, A and B alternating. Progress goes to stderr;
// the verdict document (the committed baseline) goes to stdout.
func selfCheck(cfg config, stdout io.Writer) error {
	runs := map[string]*[2][]*result{}
	problems := []string{}
	for round := 0; round < selfCheckRounds; round++ {
		var sets [2][]*result
		for _, w := range workloadNames {
			if runs[w] == nil {
				runs[w] = &[2][]*result{}
			}
			for set := range sets {
				res, err := runChild(cfg, w, false, os.Stderr)
				if err != nil {
					return err
				}
				sets[set] = append(sets[set], res)
				runs[w][set] = append(runs[w][set], res)
			}
		}
		problems = append(problems, crossCheck(sets[0])...)
		problems = append(problems, crossCheck(sets[1])...)
	}

	type row struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		Unit     string  `json:"unit"`
		Bound    float64 `json:"bound"`
		A        float64 `json:"a"`
		B        float64 `json:"b"`
		Worse    float64 `json:"b_worse_by"`
	}
	var rows []row
	var a, b []setEntry
	for _, w := range workloadNames {
		ea, eb := summarizeRuns(runs[w][0]), summarizeRuns(runs[w][1])
		a, b = append(a, ea), append(b, eb)
		for _, r := range append(runs[w][0], runs[w][1]...) {
			if r.Digest != ea.Digest {
				problems = append(problems, fmt.Sprintf("%s: outcome digest differs between runs of one seed", w))
				break
			}
		}
		for i, d := range endToEnd {
			r := row{w, d.Name, d.Unit, d.Bound, ea.Metrics[i].Median, eb.Metrics[i].Median, 0}
			r.Worse = worse(d.Better, r.A, r.B)
			if r.Worse > d.Bound {
				problems = append(problems, fmt.Sprintf("%s %s: B %.4g is %.1f%% worse than A %.4g (bound %.0f%%)",
					r.Workload, r.Metric, r.B, 100*r.Worse, r.A, 100*d.Bound))
			}
			rows = append(rows, r)
		}
	}
	doc := map[string]any{"ok": len(problems) == 0, "problems": problems, "rounds": selfCheckRounds,
		"comparison": rows, "set_a": a, "set_b": b}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", " ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	if len(problems) > 0 {
		return fmt.Errorf("selfcheck failed:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}
