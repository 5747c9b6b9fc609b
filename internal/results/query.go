package results

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Row is one flattened query row: dotted spec columns ("drift.preset",
// "daily.sessions", "seed", ...), identity columns ("name", "hash",
// "guard_hash"), per-scheme outcome columns ("Fugu.stall_pct",
// "BBA.ssim_db", "frozen.Fugu.stall_pct", ...), and "wall_seconds". Gap
// rows add "day", "present", "retrained_stall_pct", "frozen_stall_pct",
// and "gap_pp".
type Row map[string]any

// Rows flattens each distinct experiment (first record per hash) into one
// Row, sorted by hash — a deterministic order that does not depend on how
// or when records were appended.
func (ix *Index) Rows() []Row {
	rows := make([]Row, 0, len(ix.byHash))
	for _, rec := range ix.Records {
		if ix.byHash[rec.Hash] != rec {
			continue // duplicate append of an already-indexed cell
		}
		rows = append(rows, rec.row())
	}
	sort.Slice(rows, func(i, j int) bool {
		return rows[i]["hash"].(string) < rows[j]["hash"].(string)
	})
	return rows
}

// GapRows explodes each distinct experiment into one Row per day of its
// staleness-gap table (records without an ablation contribute nothing),
// sorted by (hash, day).
func (ix *Index) GapRows() []Row {
	var rows []Row
	for _, rec := range ix.Records {
		if ix.byHash[rec.Hash] != rec {
			continue
		}
		base := rec.row()
		for _, g := range rec.Outcome.Gaps {
			r := Row{}
			for k, v := range base {
				r[k] = v
			}
			r["day"] = g.Day
			r["present"] = g.Present
			r["retrained_stall_pct"] = 100 * g.Retrained
			r["frozen_stall_pct"] = 100 * g.Frozen
			r["gap_pp"] = 100 * g.Gap
			rows = append(rows, r)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		hi, hj := rows[i]["hash"].(string), rows[j]["hash"].(string)
		if hi != hj {
			return hi < hj
		}
		return rows[i]["day"].(int) < rows[j]["day"].(int)
	})
	return rows
}

// row flattens one record.
func (rec *Record) row() Row {
	r := Row{
		"name":         rec.Name,
		"hash":         rec.Hash,
		"guard_hash":   rec.GuardHash,
		"wall_seconds": rec.Timing.WallSeconds,
	}
	var spec map[string]any
	dec := json.NewDecoder(strings.NewReader(string(rec.Spec)))
	dec.UseNumber()
	if err := dec.Decode(&spec); err == nil {
		flatten("", spec, r)
	}
	// The spec's own name/notes are documentation; the record's Name wins.
	delete(r, "notes")
	for _, s := range rec.Outcome.Total {
		r[s.Name+".stall_pct"] = 100 * s.StallRatio.Point
		r[s.Name+".stall_lo_pct"] = 100 * s.StallRatio.Lo
		r[s.Name+".stall_hi_pct"] = 100 * s.StallRatio.Hi
		r[s.Name+".ssim_db"] = s.SSIM.Point
		r[s.Name+".bitrate_bps"] = s.MeanBitrate
		r[s.Name+".considered"] = s.Considered
	}
	for _, s := range rec.Outcome.FrozenTotal {
		r["frozen."+s.Name+".stall_pct"] = 100 * s.StallRatio.Point
		r["frozen."+s.Name+".ssim_db"] = s.SSIM.Point
	}
	return r
}

// flatten lowers nested JSON objects into dotted keys; arrays become their
// compact JSON form (e.g. model.hidden = "[64,64]").
func flatten(prefix string, v any, out Row) {
	switch t := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(t))
		for k := range t {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			flatten(p, t[k], out)
		}
	case []any:
		blob, _ := json.Marshal(t)
		out[prefix] = string(blob)
	default:
		out[prefix] = v
	}
}

// Pred is one field predicate: <field> <op> <value>, where op is one of
// = != < <= > >=. Comparisons are numeric when both sides parse as
// numbers, string otherwise.
type Pred struct {
	Field, Op, Value string
}

// predOps in match order: two-character operators first so "<=" is not
// split as "<" + "=...".
var predOps = []string{"!=", "<=", ">=", "=", "<", ">"}

// ParsePreds parses a comma-separated predicate list like
// "drift.preset=shift,daily.sessions>=100". Each predicate splits at its
// leftmost operator character, so a field never holds one of "=!<>" and
// everything after the operator is the value; a predicate with no field
// before its operator is refused.
func ParsePreds(s string) ([]Pred, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var preds []Pred
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		var p Pred
		i := strings.IndexAny(part, "=!<>")
		for _, op := range predOps {
			if i > 0 && strings.HasPrefix(part[i:], op) {
				p = Pred{
					Field: strings.TrimSpace(part[:i]),
					Op:    op,
					Value: strings.TrimSpace(part[i+len(op):]),
				}
				break
			}
		}
		if p.Op == "" {
			return nil, fmt.Errorf("results: predicate %q: want <field><op><value> with op one of = != < <= > >=", part)
		}
		preds = append(preds, p)
	}
	return preds, nil
}

// match evaluates the predicate against a row value. A missing field never
// matches (not even !=): filtering on a column a record lacks should
// exclude it, not silently include it.
func (p Pred) match(r Row) bool {
	v, ok := r[p.Field]
	if !ok {
		return false
	}
	if fa, okA := toFloat(v); okA {
		if fb, okB := toFloat(p.Value); okB {
			return cmpMatch(p.Op, compareFloat(fa, fb))
		}
	}
	return cmpMatch(p.Op, strings.Compare(FormatValue(v), p.Value))
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpMatch(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

func toFloat(v any) (float64, bool) {
	switch t := v.(type) {
	case float64:
		return t, true
	case int:
		return float64(t), true
	case int64:
		return float64(t), true
	case json.Number:
		f, err := t.Float64()
		return f, err == nil
	case string:
		f, err := strconv.ParseFloat(t, 64)
		return f, err == nil
	}
	return 0, false
}

// FormatValue renders a row value deterministically: floats in their
// shortest exact form, everything else in its natural form.
func FormatValue(v any) string {
	switch t := v.(type) {
	case nil:
		return ""
	case string:
		return t
	case bool:
		return strconv.FormatBool(t)
	case int:
		return strconv.Itoa(t)
	case int64:
		return strconv.FormatInt(t, 10)
	case float64:
		return strconv.FormatFloat(t, 'g', -1, 64)
	case json.Number:
		return t.String()
	default:
		blob, _ := json.Marshal(t)
		return string(blob)
	}
}

// Query describes one read of the warehouse: optional per-day explosion,
// field predicates, a projection, and an optional group-and-aggregate.
type Query struct {
	// PerDay queries the staleness gap rows (one row per record-day)
	// instead of one row per record.
	PerDay bool
	// Where keeps rows matching every predicate.
	Where []Pred
	// Cols is the projection, in output order. Empty: "name", "hash".
	Cols []string
	// GroupBy groups the filtered rows by these columns and aggregates
	// AggCol with Agg ("mean", "sum", "min", "max", or "count") per
	// group; when set, Cols is ignored and the output columns are
	// GroupBy + "agg(col)".
	GroupBy []string
	Agg     string
	AggCol  string
}

// Table is a query result: deterministic column order and row order, every
// value already formatted.
type Table struct {
	Cols []string
	Rows [][]string
}

// Query runs a query against the index. Results depend only on the set of
// distinct records, never on append order.
func (ix *Index) Query(q Query) (*Table, error) {
	rows := ix.Rows()
	if q.PerDay {
		rows = ix.GapRows()
	}
	var kept []Row
	for _, r := range rows {
		ok := true
		for _, p := range q.Where {
			if !p.match(r) {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, r)
		}
	}
	if len(q.GroupBy) > 0 {
		return groupAggregate(kept, q)
	}
	cols := q.Cols
	if len(cols) == 0 {
		cols = []string{"name", "hash"}
	}
	t := &Table{Cols: cols}
	for _, r := range kept {
		out := make([]string, len(cols))
		for i, c := range cols {
			out[i] = FormatValue(r[c])
		}
		t.Rows = append(t.Rows, out)
	}
	return t, nil
}

// groupAggregate reduces rows to one output row per distinct GroupBy
// tuple, sorted by the tuple.
func groupAggregate(rows []Row, q Query) (*Table, error) {
	agg := q.Agg
	if agg == "" {
		agg = "count"
	}
	switch agg {
	case "mean", "sum", "min", "max":
		if q.AggCol == "" {
			return nil, fmt.Errorf("results: aggregate %q needs a column", agg)
		}
	case "count":
	default:
		return nil, fmt.Errorf("results: unknown aggregate %q (want mean, sum, min, max, or count)", agg)
	}

	type group struct {
		key  []string
		vals []float64
		n    int
	}
	groups := map[string]*group{}
	for _, r := range rows {
		key := make([]string, len(q.GroupBy))
		for i, c := range q.GroupBy {
			key[i] = FormatValue(r[c])
		}
		id := strings.Join(key, "\x00")
		g := groups[id]
		if g == nil {
			g = &group{key: key}
			groups[id] = g
		}
		g.n++
		if q.AggCol != "" {
			if f, ok := toFloat(r[q.AggCol]); ok {
				g.vals = append(g.vals, f)
			}
		}
	}

	ids := make([]string, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	sort.Strings(ids)

	aggName := agg
	if q.AggCol != "" {
		aggName = fmt.Sprintf("%s(%s)", agg, q.AggCol)
	}
	t := &Table{Cols: append(append([]string{}, q.GroupBy...), aggName)}
	for _, id := range ids {
		g := groups[id]
		var out string
		switch agg {
		case "count":
			out = strconv.Itoa(g.n)
		case "sum", "mean", "min", "max":
			if len(g.vals) == 0 {
				out = ""
				break
			}
			v := g.vals[0]
			for _, x := range g.vals[1:] {
				switch agg {
				case "sum", "mean":
					v += x
				case "min":
					if x < v {
						v = x
					}
				case "max":
					if x > v {
						v = x
					}
				}
			}
			if agg == "mean" {
				v /= float64(len(g.vals))
			}
			out = FormatValue(v)
		}
		t.Rows = append(t.Rows, append(append([]string{}, g.key...), out))
	}
	return t, nil
}

// WriteText renders the table with aligned columns.
func (t *Table) WriteText(w io.Writer) error {
	widths := make([]int, len(t.Cols))
	for i, c := range t.Cols {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, v := range row {
			if i < len(widths) && len(v) > widths[i] {
				widths[i] = len(v)
			}
		}
	}
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, v := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(v)
			if pad := widths[i] - len(v); pad > 0 && i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteByte('\n')
		_, err := io.WriteString(w, b.String())
		return err
	}
	if err := writeRow(t.Cols); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the table as an array of {col: value} objects.
func (t *Table) WriteJSON(w io.Writer) error {
	objs := make([]map[string]string, 0, len(t.Rows))
	for _, row := range t.Rows {
		obj := make(map[string]string, len(t.Cols))
		for i, c := range t.Cols {
			if i < len(row) {
				obj[c] = row[i]
			}
		}
		objs = append(objs, obj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(objs)
}
