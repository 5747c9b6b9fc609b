// Command puffer-sweep runs grids of scenarios once and queries them
// forever. A sweep file names a base scenario plus axes over spec fields;
// every expanded cell is content-addressed by its spec hash, so results
// accumulate in an append-only index and a re-launch executes only the
// cells the index is missing:
//
//	puffer-sweep run -sweep grid.json -index results/index.jsonl \
//	    -checkpoint results/ckpt          # run the missing cells
//	puffer-sweep status -sweep grid.json -index results/index.jsonl
//	puffer-sweep status                    # the registered-scenario catalog
//	puffer-sweep query -index results/index.jsonl \
//	    -where drift.preset=shift -cols name,Fugu.stall_pct
//	puffer-sweep query -index results/index.jsonl -per-day \
//	    -group-by day -agg mean -agg-col gap_pp
//
// Cells run in this process across a bounded worker pool, so their metrics
// and spans reach this run's -obs-* and -trace-out outputs. Each checkpoint
// directory is keyed by the cell's GuardHash, so a killed sweep resumes
// per-cell through the existing manifest guard.
// PUFFER_SCENARIO_SCALE shrinks every cell for smoke runs — it is applied
// before hashing, so scaled and unscaled runs never collide in the index.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	"puffer/internal/obs"
	"puffer/internal/obscli"
	"puffer/internal/results"
	"puffer/internal/scenario"
	"puffer/internal/sweep"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("puffer-sweep: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "status":
		err = cmdStatus(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case scenario.DistWorkerFlag:
		// Hidden worker mode: a dist-engine cell's coordinator re-execs
		// this binary once per worker process.
		err = scenario.ServeDistWorker(os.Stdin, os.Stdout)
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		usage()
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: puffer-sweep <subcommand> [flags]

  run     expand a sweep file and run the cells the index is missing
  status  show each cell's disposition against the index
          (without -sweep: list the registered base scenarios)
  query   filter/project/aggregate the results index

Run "puffer-sweep <subcommand> -h" for flags.
`)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("puffer-sweep run", flag.ContinueOnError)
	sweepFile := fs.String("sweep", "", "sweep spec .json file (required)")
	index := fs.String("index", "results/index.jsonl", "results index to read and append")
	checkpoint := fs.String("checkpoint", "", "checkpoint root (one dir per cell GuardHash; empty = no checkpointing)")
	workers := fs.Int("workers", 0, "concurrent cells (0 = GOMAXPROCS); same-guard cells serialize regardless")
	cellWorkers := fs.Int("cell-workers", 0, "shard workers inside each cell (0 = GOMAXPROCS); never changes results")
	quiet := fs.Bool("q", false, "suppress progress logging")
	eventsPath := fs.String("events", "", `per-cell lifecycle event log (JSONL) to append to (default: <index>.events; "none" = off)`)
	var obsOpts obscli.Options
	obsOpts.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sweepFile == "" {
		return fmt.Errorf("run: -sweep is required")
	}
	sw, err := sweep.ParseFile(*sweepFile)
	if err != nil {
		return err
	}

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	// The event log rides next to the index by default, so `puffer-sweep
	// status -events` can watch a live (or killed) sweep with no extra
	// plumbing. Events alone do not turn metric recording on — only the
	// explicit obs flags do.
	evPath := *eventsPath
	if evPath == "" {
		evPath = *index + ".events"
	}
	var events *obs.EventLog
	if evPath != "none" {
		if events, err = obs.OpenEventLog(evPath); err != nil {
			return err
		}
		defer events.Close()
	}
	stopObs, err := obsOpts.Start(false, logf)
	if err != nil {
		return err
	}
	defer stopObs()

	rep, err := sweep.Execute(sw, sweep.ExecConfig{
		Workers:        *workers,
		IndexPath:      *index,
		CheckpointRoot: *checkpoint,
		Run: sweep.InProcess(scenario.RunOptions{
			Workers:     *cellWorkers,
			DistCommand: scenario.SelfDistCommand(),
			Logf:        logf,
		}),
		Transform: scenario.ScaleFromEnv,
		Logf:      logf,
		Events:    events,
	})
	if rep != nil {
		fmt.Printf("cells %d: ran %d, already indexed %d, skipped %d, failed %d\n",
			rep.Total, rep.Ran, rep.Indexed, rep.Skipped, rep.Failed)
	}
	return err
}

func cmdStatus(args []string) error {
	fs := flag.NewFlagSet("puffer-sweep status", flag.ContinueOnError)
	sweepFile := fs.String("sweep", "", "sweep spec .json file (empty: list the registered scenarios instead)")
	index := fs.String("index", "results/index.jsonl", "results index to check against")
	eventsPath := fs.String("events", "", `event log to summarize for the live view (default: <index>.events; "none" = off)`)
	jsonOut := fs.Bool("json", false, "emit JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sweepFile == "" {
		// No sweep: the catalog of registered base scenarios, through the
		// same registry walk puffer-daily -list-scenarios uses.
		return scenario.WriteListings(os.Stdout, *jsonOut)
	}
	sw, err := sweep.ParseFile(*sweepFile)
	if err != nil {
		return err
	}
	cells, err := sweep.Status(sw, *index, scenario.ScaleFromEnv)
	if err != nil {
		return err
	}
	if *jsonOut {
		type row struct {
			Index     int    `json:"index"`
			Name      string `json:"name"`
			Hash      string `json:"hash"`
			GuardHash string `json:"guard_hash"`
			State     string `json:"state"`
		}
		rows := make([]row, 0, len(cells))
		for _, c := range cells {
			rows = append(rows, row{c.Index, c.Name, c.Hash, c.GuardHash, c.State})
		}
		return writeJSON(os.Stdout, rows)
	}
	indexed := 0
	for _, c := range cells {
		if c.State == "indexed" {
			indexed++
		}
		fmt.Printf("%-8s %s (%s)\n", c.State, c.Name, c.Hash[:12])
	}
	fmt.Printf("%d/%d cells indexed in %s\n", indexed, len(cells), *index)
	printLive(os.Stdout, *eventsPath, *index)
	return nil
}

// printLive adds the event-log view of a sweep in flight: which cells a
// live (or killed) execution had started, and how far it got — read
// straight off the append-only log, so it works while `run` holds the
// index open. The sidecar is best-effort by design: an absent or empty log
// just means no live view, a truncated final record (a killed writer)
// yields the view up to the last whole record, and an unreadable log
// degrades to the index-only view with a note — status never fails over
// its sidecar.
func printLive(w io.Writer, eventsPath, index string) {
	if eventsPath == "" {
		eventsPath = index + ".events"
	}
	if eventsPath == "none" {
		return
	}
	evs, err := obs.ReadEvents(eventsPath)
	if err != nil {
		fmt.Fprintf(w, "event log %s: unreadable (%v); showing index-only view\n", eventsPath, err)
		return
	}
	if len(evs) == 0 {
		return
	}
	lv := sweep.LiveFromEvents(evs)
	state := "in flight"
	if lv.Finished {
		state = "finished"
	}
	last := "unknown"
	if !lv.LastEvent.IsZero() {
		last = lv.LastEvent.Local().Format("2006-01-02 15:04:05")
	}
	fmt.Fprintf(w, "event log %s: last execution %s (%d done, %d failed; last event %s)\n",
		eventsPath, state, lv.Done, lv.Failed, last)
	for _, name := range lv.Running {
		fmt.Fprintf(w, "running  %s\n", name)
	}
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("puffer-sweep query", flag.ContinueOnError)
	index := fs.String("index", "results/index.jsonl", "results index to query")
	where := fs.String("where", "", `predicates, e.g. "drift.preset=shift,daily.sessions>=100"`)
	cols := fs.String("cols", "", "projection columns, comma-separated (default: name,hash)")
	groupBy := fs.String("group-by", "", "group by these columns, comma-separated")
	agg := fs.String("agg", "", "aggregate per group: mean, sum, min, max, or count")
	aggCol := fs.String("agg-col", "", "column the aggregate reduces")
	perDay := fs.Bool("per-day", false, "query the per-day staleness gap rows instead of one row per record")
	jsonOut := fs.Bool("json", false, "emit JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ix, err := results.Load(*index)
	if err != nil {
		return err
	}
	preds, err := results.ParsePreds(*where)
	if err != nil {
		return err
	}
	q := results.Query{
		PerDay:  *perDay,
		Where:   preds,
		Cols:    splitList(*cols),
		GroupBy: splitList(*groupBy),
		Agg:     *agg,
		AggCol:  *aggCol,
	}
	table, err := ix.Query(q)
	if err != nil {
		return err
	}
	if *jsonOut {
		return table.WriteJSON(os.Stdout)
	}
	return table.WriteText(os.Stdout)
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func splitList(s string) []string {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
