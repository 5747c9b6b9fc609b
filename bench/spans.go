package main

import (
	"sort"
	"sync"

	"puffer/internal/obs"
)

// span is one call the bench made into a layer: name, start, end, and the
// span that caused it. Stamps are obs.Now nanoseconds, the same clock the
// program's own sampled spans use, so the two sets share one timeline.
type span struct {
	Name       string
	Start, End int64
	Parent     int // index into the recorder's spans, -1 for a root
	Repeat     int
}

// recorder keeps the bench's spans in memory until the run ends. A nil
// recorder records nothing, which is the untraced pass.
type recorder struct {
	mu     sync.Mutex
	spans  []span
	repeat int // the open repeat span (-1 for none), parent of front-door spans
}

// begin opens a span and returns its id (-1 from a nil recorder).
func (r *recorder) begin(name string, parent, repeat int) int {
	if r == nil {
		return -1
	}
	now := obs.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, End: now, Parent: parent, Repeat: repeat})
	return len(r.spans) - 1
}

// end closes a span opened by begin.
func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := obs.Now()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// door opens the span around one call through a program front door, under
// the open repeat span.
func (r *recorder) door(name string) int {
	if r == nil || r.repeat < 0 {
		return -1
	}
	return r.begin(name, r.repeat, r.spans[r.repeat].Repeat)
}

// selfTimes returns, for each span, its duration minus the part of its
// interval that its child spans cover. Children are clipped to the parent
// and overlapping children (two goroutines under one shard) count once.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered := s.Start
		for _, k := range ks {
			lo, hi := max(spans[k].Start, covered), min(spans[k].End, s.End)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// budgetRow is one line of the layer table: every span of one name.
type budgetRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	// ShareOfParent is the spans' total time over their parents' total.
	ShareOfParent float64 `json:"share_of_parent"`
}

// budget folds spans by name, in first-appearance order.
func budget(spans []span) []budgetRow {
	self := selfTimes(spans)
	rows := map[string]*budgetRow{}
	parents := map[string]map[int]bool{}
	var order []string
	for i, s := range spans {
		row := rows[s.Name]
		if row == nil {
			row = &budgetRow{Name: s.Name}
			rows[s.Name] = row
			parents[s.Name] = map[int]bool{}
			order = append(order, s.Name)
		}
		row.Count++
		row.TotalMS += float64(s.End-s.Start) / 1e6
		row.SelfMS += float64(self[i]) / 1e6
		if s.Parent >= 0 {
			parents[s.Name][s.Parent] = true
		}
	}
	out := make([]budgetRow, 0, len(order))
	for _, name := range order {
		row := rows[name]
		var parentMS float64
		for p := range parents[name] {
			parentMS += float64(spans[p].End-spans[p].Start) / 1e6
		}
		if parentMS > 0 {
			row.ShareOfParent = row.TotalMS / parentMS
		}
		out = append(out, *row)
	}
	return out
}

// obsSpans converts bench spans to the obs span shape so that
// obs.WriteChromeTrace renders them with the program's own spans. Each
// repeat is one trace (one Perfetto row); ids are offset to stay clear of
// the tracer's.
func obsSpans(spans []span) []obs.Span {
	const idBase = 1 << 40
	out := make([]obs.Span, len(spans))
	for i, s := range spans {
		out[i] = obs.Span{
			Trace: uint64(idBase + s.Repeat + 1), ID: uint64(idBase + i + 1),
			Name: "bench." + s.Name, Start: s.Start, Dur: s.End - s.Start,
			Attrs: []obs.Attr{{Key: "repeat", Val: int64(s.Repeat)}},
		}
		if s.Parent >= 0 {
			out[i].Parent = uint64(idBase + s.Parent + 1)
		}
	}
	return out
}
