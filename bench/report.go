package main

import (
	"fmt"
	"io"
	"sort"
)

// printResult renders one workload's result for people: the end-to-end
// table untraced; the layer table, the budget and the span file traced.
func printResult(w io.Writer, r *result) {
	e := r.Env
	pass := "end-to-end"
	if r.Trace {
		pass = "traced"
	}
	fmt.Fprintf(w, "\n== %s (%s pass) seed %d, %d repeats (%d quiet, host steal %.2f s), sizes %v\n",
		r.Workload, pass, e.Seed, e.Repeats, r.Quiet, r.StealS, e.Sizes)
	fmt.Fprintf(w, "   %s, nproc %d, GOMAXPROCS %d, %s, git %s, nn accelerated %v\n",
		e.CPUModel, e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.GitSHA, e.Accelerated)
	fmt.Fprintf(w, "   outcome_digest %s\n", r.Digest)
	fmt.Fprintf(w, "   ops_attempted %d  ops_failed %d  failed_share %.4f\n", r.Attempted, r.Failed, r.FailedShare)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "   PROBLEM: %s\n", p)
	}
	if !r.Trace {
		// End-to-end metrics are never taken from the traced pass.
		fmt.Fprintf(w, "   %-24s %-6s %12s %12s %12s %12s %12s %6s %8s\n",
			"metric", "unit", "median", "q1", "q3", "min", "max", "n", "max/min")
		for _, m := range append(r.Metrics, r.Info...) {
			fmt.Fprintf(w, "   %-24s %-6s %12.4f %12.4f %12.4f %12.4f %12.4f %6d %8.3f\n",
				m.Name, m.Unit, m.Median, m.Q1, m.Q3, m.Min, m.Max, m.N, m.MaxOverMin)
		}
		return
	}
	units := map[string]string{}
	for _, d := range perLayer {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(r.Layers))
	for name := range r.Layers {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "   %-40s %-6s %14s\n", "layer metric", "unit", "value")
	for _, name := range names {
		fmt.Fprintf(w, "   %-40s %-6s %14.4f\n", name, units[name], r.Layers[name])
	}
	if len(r.Budget) > 0 {
		fmt.Fprintf(w, "   %-12s %8s %12s %12s %8s\n", "span", "count", "total_ms", "self_ms", "of parent")
		for _, b := range r.Budget {
			fmt.Fprintf(w, "   %-12s %8d %12.2f %12.2f %7.1f%%\n", b.Name, b.Count, b.TotalMS, b.SelfMS, 100*b.ShareOfParent)
		}
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "   spans written to %s\n", r.TraceFile)
	}
}
