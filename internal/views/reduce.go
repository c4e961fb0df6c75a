package views

import (
	"fmt"
	"sort"

	"couchgo/internal/btree"
	"couchgo/internal/gsi"
	"couchgo/internal/value"
)

// Built-in reduce functions, matching the set CouchDB-heritage views
// provide: _count, _sum, _stats, _min, _max. Each is a btree.Reducer so
// partial aggregates live in the index tree's interior nodes.

func reducerFor(name string) (btree.Reducer[gsi.ScanItem], error) {
	switch name {
	case "":
		return nil, nil
	case "_count":
		return countReducer{}, nil
	case "_sum":
		return sumReducer{}, nil
	case "_stats":
		return statsReducer{}, nil
	case "_min":
		return minReducer{}, nil
	case "_max":
		return maxReducer{}, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrBadReduce, name)
}

// finishReduce converts an internal partial into the client-facing
// value (stats partials become their JSON object form).
func finishReduce(name string, partial any) any {
	if name == "_stats" {
		st, ok := partial.(stats)
		if !ok {
			return stats{}.object()
		}
		return st.object()
	}
	return partial
}

// countReducer merges counts as _sum merges sums.
type countReducer struct{ sumReducer }

func (countReducer) Map([]byte, gsi.ScanItem) any { return 1.0 }

type sumReducer struct{}

func (sumReducer) Map(_ []byte, v gsi.ScanItem) any {
	if f, ok := value.AsNumber(v.Value); ok {
		return f
	}
	return 0.0
}
func (sumReducer) Merge(parts ...any) any {
	total := 0.0
	for _, p := range parts {
		if f, ok := value.AsNumber(p); ok {
			total += f
		}
	}
	return total
}
func (sumReducer) Zero() any { return 0.0 }

// stats mirrors CouchDB's _stats object.
type stats struct {
	Sum, Min, Max, SumSqr float64
	Count                 float64
}

func (s stats) object() map[string]any {
	if s.Count == 0 {
		return map[string]any{"sum": 0.0, "count": 0.0, "min": nil, "max": nil, "sumsqr": 0.0}
	}
	return map[string]any{"sum": s.Sum, "count": s.Count, "min": s.Min, "max": s.Max, "sumsqr": s.SumSqr}
}

type statsReducer struct{}

func (statsReducer) Map(_ []byte, v gsi.ScanItem) any {
	f, ok := value.AsNumber(v.Value)
	if !ok {
		return stats{}
	}
	return stats{Sum: f, Min: f, Max: f, SumSqr: f * f, Count: 1}
}

// Merge takes partials and finished objects alike: a node's reduced
// row carries the object.
func (statsReducer) Merge(parts ...any) any {
	var out stats
	for _, p := range parts {
		st, ok := p.(stats)
		if obj, isObj := p.(map[string]any); isObj {
			st, ok = statsOf(obj), true
		}
		if !ok || st.Count == 0 {
			continue
		}
		if out.Count == 0 {
			out = st
			continue
		}
		out.Sum += st.Sum
		out.SumSqr += st.SumSqr
		out.Count += st.Count
		if st.Min < out.Min {
			out.Min = st.Min
		}
		if st.Max > out.Max {
			out.Max = st.Max
		}
	}
	return out
}
func (statsReducer) Zero() any { return stats{} }

func statsOf(obj map[string]any) stats {
	n := func(k string) float64 { f, _ := value.AsNumber(obj[k]); return f }
	return stats{Sum: n("sum"), Min: n("min"), Max: n("max"), SumSqr: n("sumsqr"), Count: n("count")}
}

type minReducer struct{}

func (minReducer) Map(_ []byte, v gsi.ScanItem) any { return v.Value }
func (minReducer) Merge(parts ...any) any {
	var best any
	for _, p := range parts {
		if p == nil {
			continue
		}
		if best == nil || value.Compare(p, best) < 0 {
			best = p
		}
	}
	return best
}
func (minReducer) Zero() any { return nil }

type maxReducer struct{}

func (maxReducer) Map(_ []byte, v gsi.ScanItem) any { return v.Value }
func (maxReducer) Merge(parts ...any) any {
	var best any
	for _, p := range parts {
		if p == nil {
			continue
		}
		if best == nil || value.Compare(p, best) > 0 {
			best = p
		}
	}
	return best
}
func (maxReducer) Zero() any { return nil }

// MergeRows merges per-node scatter/gather results into one sorted
// result set, as the coordinating node does in Figure 8. Reduced values
// re-merge with the named reduce's own Merge, the one its tree uses on
// partials: into one row, or one per key when grouped.
func MergeRows(reduce string, grouped bool, parts [][]Row) []Row {
	var all []Row
	for _, p := range parts {
		all = append(all, p...)
	}
	r, err := reducerFor(reduce)
	if err != nil {
		return nil
	}
	if r != nil && !grouped {
		vals := make([]any, len(all))
		for i := range all {
			vals[i] = all[i].Value
		}
		return []Row{{Value: finishReduce(reduce, r.Merge(vals...))}}
	}
	sortRows(all)
	if r == nil {
		return all
	}
	var out []Row
	for _, row := range all {
		if n := len(out); n > 0 && value.Compare(out[n-1].Key, row.Key) == 0 {
			out[n-1].Value = finishReduce(reduce, r.Merge(out[n-1].Value, row.Value))
			continue
		}
		out = append(out, Row{Key: row.Key, Value: row.Value})
	}
	return out
}

func sortRows(rows []Row) {
	sort.SliceStable(rows, func(i, j int) bool {
		if c := value.Compare(rows[i].Key, rows[j].Key); c != 0 {
			return c < 0
		}
		return rows[i].ID < rows[j].ID
	})
}
