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

func reducerFor(name string) (btree.Reducer, error) {
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

type countReducer struct{}

func (countReducer) Map(_ []byte, _ any) any { return 1.0 }
func (countReducer) Merge(parts ...any) any {
	total := 0.0
	for _, p := range parts {
		if f, ok := p.(float64); ok {
			total += f
		}
	}
	return total
}
func (countReducer) Zero() any { return 0.0 }

type sumReducer struct{}

func (sumReducer) Map(_ []byte, v any) any {
	if f, ok := value.AsNumber(v.(gsi.ScanItem).Value); ok {
		return f
	}
	return 0.0
}
func (sumReducer) Merge(parts ...any) any {
	total := 0.0
	for _, p := range parts {
		if f, ok := p.(float64); ok {
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

func (statsReducer) Map(_ []byte, v any) any {
	f, ok := value.AsNumber(v.(gsi.ScanItem).Value)
	if !ok {
		return stats{}
	}
	return stats{Sum: f, Min: f, Max: f, SumSqr: f * f, Count: 1}
}
func (statsReducer) Merge(parts ...any) any {
	var out stats
	for _, p := range parts {
		st, ok := p.(stats)
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

type minReducer struct{}

func (minReducer) Map(_ []byte, v any) any { return v.(gsi.ScanItem).Value }
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

func (maxReducer) Map(_ []byte, v any) any { return v.(gsi.ScanItem).Value }
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
// result set, as the coordinating node does in Figure 8. For reduced
// (non-grouped) results, partials re-merge with the named reduce.
func MergeRows(reduce string, grouped bool, parts [][]Row) []Row {
	if reduce != "" && !grouped {
		return mergeReduced(reduce, parts)
	}
	var all []Row
	for _, p := range parts {
		all = append(all, p...)
	}
	sortRows(all)
	if reduce != "" && grouped {
		return regroup(reduce, all)
	}
	return all
}

func mergeReduced(reduce string, parts [][]Row) []Row {
	switch reduce {
	case "_count", "_sum":
		total := 0.0
		for _, p := range parts {
			for _, r := range p {
				if f, ok := value.AsNumber(r.Value); ok {
					total += f
				}
			}
		}
		return []Row{{Value: total}}
	case "_min":
		var best any
		for _, p := range parts {
			for _, r := range p {
				if r.Value == nil {
					continue
				}
				if best == nil || value.Compare(r.Value, best) < 0 {
					best = r.Value
				}
			}
		}
		return []Row{{Value: best}}
	case "_max":
		var best any
		for _, p := range parts {
			for _, r := range p {
				if r.Value == nil {
					continue
				}
				if best == nil || value.Compare(r.Value, best) > 0 {
					best = r.Value
				}
			}
		}
		return []Row{{Value: best}}
	case "_stats":
		var out stats
		for _, p := range parts {
			for _, r := range p {
				obj, ok := r.Value.(map[string]any)
				if !ok {
					continue
				}
				cnt, _ := value.AsNumber(obj["count"])
				if cnt == 0 {
					continue
				}
				sum, _ := value.AsNumber(obj["sum"])
				mn, _ := value.AsNumber(obj["min"])
				mx, _ := value.AsNumber(obj["max"])
				sq, _ := value.AsNumber(obj["sumsqr"])
				st := stats{Sum: sum, Min: mn, Max: mx, SumSqr: sq, Count: cnt}
				if out.Count == 0 {
					out = st
				} else {
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
			}
		}
		return []Row{{Value: out.object()}}
	}
	return nil
}

func regroup(reduce string, sorted []Row) []Row {
	var out []Row
	for _, r := range sorted {
		if len(out) > 0 && value.Compare(out[len(out)-1].Key, r.Key) == 0 {
			merged := mergeReduced(reduce, [][]Row{{out[len(out)-1]}, {r}})
			out[len(out)-1].Value = merged[0].Value
			continue
		}
		out = append(out, Row{Key: r.Key, Value: r.Value})
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
