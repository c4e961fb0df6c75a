package n1ql

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"couchgo/internal/value"
)

// builtins maps (upper-cased) function names to implementations. Each
// function receives already-evaluated arguments and applies its own
// MISSING/NULL discipline (generally: MISSING propagates, wrong types
// yield NULL).
var builtins = map[string]func([]any) (any, error){}

func register(name string, minArgs, maxArgs int, fn func([]any) (any, error)) {
	builtins[name] = func(args []any) (any, error) {
		if len(args) < minArgs || (maxArgs >= 0 && len(args) > maxArgs) {
			return nil, fmt.Errorf("n1ql: %s expects %d..%d arguments, got %d", name, minArgs, maxArgs, len(args))
		}
		return fn(args)
	}
}

// propagate returns (result, true) when any argument short-circuits the
// function per MISSING/NULL discipline.
func propagate(args ...any) (any, bool) {
	for _, a := range args {
		if value.IsMissing(a) {
			return value.Missing, true
		}
	}
	for _, a := range args {
		if a == nil {
			return nil, true
		}
	}
	return nil, false
}

func stringArg(v any) (string, bool) { s, ok := v.(string); return s, ok }

func init() {
	// --- type inspection / conversion ---
	register("TYPE", 1, 1, func(args []any) (any, error) {
		return value.KindOf(args[0]).String(), nil
	})
	register("TO_STRING", 1, 1, func(args []any) (any, error) {
		if v, short := propagate(args[0]); short {
			return v, nil
		}
		switch t := args[0].(type) {
		case string:
			return t, nil
		case bool:
			return strconv.FormatBool(t), nil
		default:
			if f, ok := value.AsNumber(args[0]); ok {
				return value.FormatNumber(f), nil
			}
		}
		return nil, nil
	})
	register("TO_NUMBER", 1, 1, func(args []any) (any, error) {
		if v, short := propagate(args[0]); short {
			return v, nil
		}
		if f, ok := value.AsNumber(args[0]); ok {
			return f, nil
		}
		if s, ok := stringArg(args[0]); ok {
			if f, err := strconv.ParseFloat(strings.TrimSpace(s), 64); err == nil {
				return f, nil
			}
		}
		switch args[0] {
		case true:
			return 1.0, nil
		case false:
			return 0.0, nil
		}
		return nil, nil
	})

	// --- conditional ---
	register("IFMISSING", 2, -1, func(args []any) (any, error) {
		for _, a := range args {
			if !value.IsMissing(a) {
				return a, nil
			}
		}
		return value.Missing, nil
	})
	register("IFNULL", 2, -1, func(args []any) (any, error) {
		for _, a := range args {
			if a != nil {
				return a, nil
			}
		}
		return nil, nil
	})
	register("IFMISSINGORNULL", 2, -1, func(args []any) (any, error) {
		for _, a := range args {
			if !value.IsMissing(a) && a != nil {
				return a, nil
			}
		}
		return nil, nil
	})
	builtins["COALESCE"] = builtins["IFMISSINGORNULL"]
	register("GREATEST", 1, -1, func(args []any) (any, error) {
		var best any = value.Missing
		for _, a := range args {
			if value.IsMissing(a) || a == nil {
				continue
			}
			if value.IsMissing(best) || value.Compare(a, best) > 0 {
				best = a
			}
		}
		if value.IsMissing(best) {
			return nil, nil
		}
		return best, nil
	})
	register("LEAST", 1, -1, func(args []any) (any, error) {
		var best any = value.Missing
		for _, a := range args {
			if value.IsMissing(a) || a == nil {
				continue
			}
			if value.IsMissing(best) || value.Compare(a, best) < 0 {
				best = a
			}
		}
		if value.IsMissing(best) {
			return nil, nil
		}
		return best, nil
	})

	// --- strings ---
	register("UPPER", 1, 1, func(args []any) (any, error) {
		if v, short := propagate(args[0]); short {
			return v, nil
		}
		if s, ok := stringArg(args[0]); ok {
			return strings.ToUpper(s), nil
		}
		return nil, nil
	})
	register("LOWER", 1, 1, func(args []any) (any, error) {
		if v, short := propagate(args[0]); short {
			return v, nil
		}
		if s, ok := stringArg(args[0]); ok {
			return strings.ToLower(s), nil
		}
		return nil, nil
	})
	register("LENGTH", 1, 1, func(args []any) (any, error) {
		if v, short := propagate(args[0]); short {
			return v, nil
		}
		if s, ok := stringArg(args[0]); ok {
			return float64(len(s)), nil
		}
		return nil, nil
	})
	register("SUBSTR", 2, 3, func(args []any) (any, error) {
		if v, short := propagate(args...); short {
			return v, nil
		}
		s, ok := stringArg(args[0])
		start, ok2 := value.AsNumber(args[1])
		if !ok || !ok2 {
			return nil, nil
		}
		i := int(start)
		if i < 0 {
			i += len(s)
		}
		if i < 0 || i > len(s) {
			return nil, nil
		}
		end := len(s)
		if len(args) == 3 {
			n, ok := value.AsNumber(args[2])
			if !ok || n < 0 {
				return nil, nil
			}
			if e := i + int(n); e < end {
				end = e
			}
		}
		return s[i:end], nil
	})
	register("CONTAINS", 2, 2, func(args []any) (any, error) {
		if v, short := propagate(args...); short {
			return v, nil
		}
		s, ok := stringArg(args[0])
		sub, ok2 := stringArg(args[1])
		if !ok || !ok2 {
			return nil, nil
		}
		return strings.Contains(s, sub), nil
	})
	register("POSITION", 2, 2, func(args []any) (any, error) {
		if v, short := propagate(args...); short {
			return v, nil
		}
		s, ok := stringArg(args[0])
		sub, ok2 := stringArg(args[1])
		if !ok || !ok2 {
			return nil, nil
		}
		return float64(strings.Index(s, sub)), nil
	})
	register("TRIM", 1, 1, func(args []any) (any, error) {
		if v, short := propagate(args[0]); short {
			return v, nil
		}
		if s, ok := stringArg(args[0]); ok {
			return strings.TrimSpace(s), nil
		}
		return nil, nil
	})
	register("REPLACE", 3, 3, func(args []any) (any, error) {
		if v, short := propagate(args...); short {
			return v, nil
		}
		s, ok := stringArg(args[0])
		old, ok2 := stringArg(args[1])
		nw, ok3 := stringArg(args[2])
		if !ok || !ok2 || !ok3 {
			return nil, nil
		}
		return strings.ReplaceAll(s, old, nw), nil
	})
	register("SPLIT", 1, 2, func(args []any) (any, error) {
		if v, short := propagate(args...); short {
			return v, nil
		}
		s, ok := stringArg(args[0])
		if !ok {
			return nil, nil
		}
		var parts []string
		if len(args) == 2 {
			sep, ok := stringArg(args[1])
			if !ok {
				return nil, nil
			}
			parts = strings.Split(s, sep)
		} else {
			parts = strings.Fields(s)
		}
		out := make([]any, len(parts))
		for i, p := range parts {
			out[i] = p
		}
		return out, nil
	})

	// --- numbers ---
	register("ABS", 1, 1, numeric1(math.Abs))
	register("CEIL", 1, 1, numeric1(math.Ceil))
	register("FLOOR", 1, 1, numeric1(math.Floor))
	register("ROUND", 1, 1, numeric1(math.Round))
	register("SQRT", 1, 1, numeric1(math.Sqrt))
	register("TRUNC", 1, 1, numeric1(math.Trunc))
	register("POWER", 2, 2, func(args []any) (any, error) {
		if v, short := propagate(args...); short {
			return v, nil
		}
		a, ok := value.AsNumber(args[0])
		b, ok2 := value.AsNumber(args[1])
		if !ok || !ok2 {
			return nil, nil
		}
		return math.Pow(a, b), nil
	})

	// --- arrays ---
	register("ARRAY_LENGTH", 1, 1, func(args []any) (any, error) {
		if v, short := propagate(args[0]); short {
			return v, nil
		}
		if arr, ok := args[0].([]any); ok {
			return float64(len(arr)), nil
		}
		return nil, nil
	})
	register("ARRAY_CONTAINS", 2, 2, func(args []any) (any, error) {
		if v, short := propagate(args[0]); short {
			return v, nil
		}
		arr, ok := args[0].([]any)
		if !ok {
			return nil, nil
		}
		for _, el := range arr {
			if value.Compare(el, args[1]) == 0 {
				return true, nil
			}
		}
		return false, nil
	})
	register("ARRAY_APPEND", 2, -1, func(args []any) (any, error) {
		if v, short := propagate(args[0]); short {
			return v, nil
		}
		arr, ok := args[0].([]any)
		if !ok {
			return nil, nil
		}
		out := append(append([]any{}, arr...), args[1:]...)
		return out, nil
	})
	register("ARRAY_DISTINCT", 1, 1, func(args []any) (any, error) {
		if v, short := propagate(args[0]); short {
			return v, nil
		}
		arr, ok := args[0].([]any)
		if !ok {
			return nil, nil
		}
		var out []any
		for _, el := range arr {
			dup := false
			for _, seen := range out {
				if value.Compare(el, seen) == 0 {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, el)
			}
		}
		if out == nil {
			out = []any{}
		}
		return out, nil
	})
	register("ARRAY_MIN", 1, 1, func(args []any) (any, error) {
		if v, short := propagate(args[0]); short {
			return v, nil
		}
		arr, ok := args[0].([]any)
		if !ok || len(arr) == 0 {
			return nil, nil
		}
		best := arr[0]
		for _, el := range arr[1:] {
			if value.Compare(el, best) < 0 {
				best = el
			}
		}
		return best, nil
	})
	register("ARRAY_MAX", 1, 1, func(args []any) (any, error) {
		if v, short := propagate(args[0]); short {
			return v, nil
		}
		arr, ok := args[0].([]any)
		if !ok || len(arr) == 0 {
			return nil, nil
		}
		best := arr[0]
		for _, el := range arr[1:] {
			if value.Compare(el, best) > 0 {
				best = el
			}
		}
		return best, nil
	})
	register("ARRAY_SORT", 1, 1, func(args []any) (any, error) {
		if v, short := propagate(args[0]); short {
			return v, nil
		}
		arr, ok := args[0].([]any)
		if !ok {
			return nil, nil
		}
		out := append([]any{}, arr...)
		sort.SliceStable(out, func(i, j int) bool { return value.Compare(out[i], out[j]) < 0 })
		return out, nil
	})

	// --- objects ---
	register("OBJECT_NAMES", 1, 1, func(args []any) (any, error) {
		if v, short := propagate(args[0]); short {
			return v, nil
		}
		names := value.FieldNames(args[0])
		if names == nil {
			return nil, nil
		}
		out := make([]any, len(names))
		for i, n := range names {
			out[i] = n
		}
		return out, nil
	})
	register("OBJECT_VALUES", 1, 1, func(args []any) (any, error) {
		if v, short := propagate(args[0]); short {
			return v, nil
		}
		obj, ok := args[0].(map[string]any)
		if !ok {
			return nil, nil
		}
		names := value.FieldNames(args[0])
		out := make([]any, len(names))
		for i, n := range names {
			out[i] = obj[n]
		}
		return out, nil
	})

	// EXISTS e: true when e is a non-empty array.
	register("EXISTS", 1, 1, func(args []any) (any, error) {
		if v, short := propagate(args[0]); short {
			return v, nil
		}
		if arr, ok := args[0].([]any); ok {
			return len(arr) > 0, nil
		}
		return nil, nil
	})
}

func numeric1(fn func(float64) float64) func([]any) (any, error) {
	return func(args []any) (any, error) {
		if v, short := propagate(args[0]); short {
			return v, nil
		}
		f, ok := value.AsNumber(args[0])
		if !ok {
			return nil, nil
		}
		return fn(f), nil
	}
}

// --- aggregates ---

// aggregateNames are the aggregate functions usable with GROUP BY.
var aggregateNames = map[string]bool{
	"COUNT": true, "SUM": true, "AVG": true, "MIN": true, "MAX": true,
	"ARRAY_AGG": true,
}

// IsAggregate reports whether name (upper-cased) is an aggregate.
func IsAggregate(name string) bool { return aggregateNames[name] }

// HasAggregate reports whether the expression tree contains an
// aggregate call — the planner uses it to decide grouping.
func HasAggregate(e Expr) bool {
	found := false
	WalkExpr(e, func(x Expr) bool {
		if fc, ok := x.(*FuncCall); ok && IsAggregate(fc.Name) {
			found = true
			return false
		}
		return true
	})
	return found
}

// Aggregator accumulates one aggregate function over a group.
type Aggregator struct {
	fn       string
	distinct bool
	count    float64
	sum      float64
	sawNum   bool
	min, max any
	items    []any
	seen     []any // for DISTINCT
}

// NewAggregator creates an accumulator for the named aggregate.
func NewAggregator(fc *FuncCall) *Aggregator {
	return &Aggregator{fn: fc.Name, distinct: fc.Distinct}
}

// Add feeds one input value (already evaluated; MISSING/NULL are
// ignored per SQL aggregate semantics, except COUNT(*) which the
// executor feeds with TRUE for every row).
func (a *Aggregator) Add(v any) {
	if value.IsMissing(v) || v == nil {
		return
	}
	if a.distinct {
		for _, s := range a.seen {
			if value.Compare(s, v) == 0 {
				return
			}
		}
		a.seen = append(a.seen, v)
	}
	a.count++
	if f, ok := value.AsNumber(v); ok {
		a.sum += f
		a.sawNum = true
	}
	if a.min == nil || value.Compare(v, a.min) < 0 {
		a.min = v
	}
	if a.max == nil || value.Compare(v, a.max) > 0 {
		a.max = v
	}
	if a.fn == "ARRAY_AGG" {
		a.items = append(a.items, v)
	}
}

// Result produces the aggregate's final value.
func (a *Aggregator) Result() any {
	switch a.fn {
	case "COUNT":
		return a.count
	case "SUM":
		if !a.sawNum {
			return nil
		}
		return a.sum
	case "AVG":
		if !a.sawNum || a.count == 0 {
			return nil
		}
		return a.sum / a.count
	case "MIN":
		if a.min == nil {
			return nil
		}
		return a.min
	case "MAX":
		if a.max == nil {
			return nil
		}
		return a.max
	case "ARRAY_AGG":
		if a.items == nil {
			return []any{}
		}
		return a.items
	}
	return nil
}
