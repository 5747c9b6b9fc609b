package sweep

import (
	"sort"
	"time"

	"puffer/internal/obs"
)

// Live is the event-log view of a sweep in flight: what a relaunch-or-wait
// decision needs, computable from the append-only event stream alone (no
// index lock, no liveness protocol — a torn tail just means the writer is
// mid-append).
type Live struct {
	// Running lists cells that started but have not finished or failed,
	// in start order. For a killed sweep these are the cells that were in
	// flight at the kill (their checkpoints make the re-run cheap).
	Running []string
	// Done and Failed count finished cells seen in the stream.
	Done, Failed int
	// Finished reports whether a sweep_done event closed the stream.
	Finished bool
	// LastEvent is the newest event's wall clock (zero for an empty log).
	LastEvent time.Time
}

// LiveFromEvents folds a sweep event stream (ReadEvents of the log
// ExecConfig.Events wrote) into its live view. Multiple sweep executions
// appended to one log compose: sweep_start resets the in-flight set, and
// done/failed counts accumulate across executions like the index does.
func LiveFromEvents(evs []obs.Event) Live {
	var lv Live
	running := map[string]int{} // cell name -> start order
	order := 0
	for _, ev := range evs {
		if !ev.Time.IsZero() {
			lv.LastEvent = ev.Time
		}
		name, _ := ev.Fields["cell"].(string)
		switch ev.Type {
		case "sweep_start":
			running = map[string]int{}
			lv.Finished = false
		case "cell_start":
			running[name] = order
			order++
		case "cell_done":
			delete(running, name)
			lv.Done++
		case "cell_failed":
			delete(running, name)
			lv.Failed++
		case "sweep_done":
			lv.Finished = true
		}
	}
	lv.Running = make([]string, 0, len(running))
	for name := range running {
		lv.Running = append(lv.Running, name)
	}
	sort.Slice(lv.Running, func(i, j int) bool { return running[lv.Running[i]] < running[lv.Running[j]] })
	return lv
}
