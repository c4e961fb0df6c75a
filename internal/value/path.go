package value

import (
	"math"
	"strconv"
	"strings"
)

func float64bits(f float64) uint64 { return math.Float64bits(f) }

// A Path addresses a location inside a document: a sequence of field
// names and array indexes, e.g. "address.city" or "orders[0].total".
type Path struct {
	steps []pathStep
}

type pathStep struct {
	field string
	index int
	isIdx bool
}

// ParsePath parses a dotted path with optional [n] indexing. It accepts
// the subset used by view definitions, selective indexes, and the
// sub-document KV API. An empty string addresses the document root.
func ParsePath(s string) (Path, bool) {
	var p Path
	if s == "" {
		return p, true
	}
	rest := s
	for len(rest) > 0 {
		// Field name up to '.' or '['.
		i := strings.IndexAny(rest, ".[")
		var name string
		if i < 0 {
			name, rest = rest, ""
		} else {
			name, rest = rest[:i], rest[i:]
		}
		if name != "" {
			p.steps = append(p.steps, pathStep{field: name})
		}
		// Index steps.
		for strings.HasPrefix(rest, "[") {
			j := strings.IndexByte(rest, ']')
			if j < 0 {
				return Path{}, false
			}
			n, err := strconv.Atoi(rest[1:j])
			if err != nil {
				return Path{}, false
			}
			p.steps = append(p.steps, pathStep{index: n, isIdx: true})
			rest = rest[j+1:]
		}
		if strings.HasPrefix(rest, ".") {
			rest = rest[1:]
			if rest == "" {
				return Path{}, false
			}
		} else if rest != "" && !strings.HasPrefix(rest, "[") {
			return Path{}, false
		}
	}
	return p, true
}

// String renders the path back to source form.
func (p Path) String() string {
	var b strings.Builder
	for i, st := range p.steps {
		if st.isIdx {
			b.WriteByte('[')
			b.WriteString(strconv.Itoa(st.index))
			b.WriteByte(']')
		} else {
			if i > 0 {
				b.WriteByte('.')
			}
			b.WriteString(st.field)
		}
	}
	return b.String()
}

// Len returns the number of steps in the path.
func (p Path) Len() int { return len(p.steps) }

// Eval navigates the path from root v, yielding Missing on any miss.
func (p Path) Eval(v any) any {
	for _, st := range p.steps {
		if st.isIdx {
			v = Index(v, st.index)
		} else {
			v = Field(v, st.field)
		}
		if IsMissing(v) {
			return Missing
		}
	}
	return v
}

// Set writes nv at the path inside document v (which must be an object
// for non-empty paths), creating intermediate objects as needed. It
// returns the updated document and reports whether the write applied.
// Array steps only update existing elements; they never grow arrays.
func (p Path) Set(v any, nv any) (any, bool) {
	if len(p.steps) == 0 {
		return nv, true
	}
	return setSteps(v, p.steps, nv)
}

func setSteps(v any, steps []pathStep, nv any) (any, bool) {
	st := steps[0]
	if st.isIdx {
		arr, ok := v.([]any)
		if !ok {
			return v, false
		}
		i := st.index
		if i < 0 {
			i += len(arr)
		}
		if i < 0 || i >= len(arr) {
			return v, false
		}
		if len(steps) == 1 {
			arr[i] = nv
			return arr, true
		}
		child, ok := setSteps(arr[i], steps[1:], nv)
		if !ok {
			return v, false
		}
		arr[i] = child
		return arr, true
	}
	obj, ok := v.(map[string]any)
	if !ok {
		if !IsMissing(v) && v != nil {
			return v, false
		}
		obj = map[string]any{}
	}
	if len(steps) == 1 {
		obj[st.field] = nv
		return obj, true
	}
	child, exists := obj[st.field]
	if !exists {
		child = Missing
	}
	child, ok = setSteps(child, steps[1:], nv)
	if !ok {
		return obj, false
	}
	obj[st.field] = child
	return obj, true
}

// Delete removes the field addressed by the path. It reports whether a
// field was actually removed.
func (p Path) Delete(v any) (any, bool) {
	if len(p.steps) == 0 {
		return v, false
	}
	return delSteps(v, p.steps)
}

func delSteps(v any, steps []pathStep) (any, bool) {
	st := steps[0]
	if st.isIdx {
		arr, ok := v.([]any)
		if !ok {
			return v, false
		}
		i := st.index
		if i < 0 {
			i += len(arr)
		}
		if i < 0 || i >= len(arr) {
			return v, false
		}
		if len(steps) == 1 {
			return append(arr[:i], arr[i+1:]...), true
		}
		child, ok := delSteps(arr[i], steps[1:])
		if !ok {
			return v, false
		}
		arr[i] = child
		return arr, true
	}
	obj, ok := v.(map[string]any)
	if !ok {
		return v, false
	}
	if len(steps) == 1 {
		if _, exists := obj[st.field]; !exists {
			return obj, false
		}
		delete(obj, st.field)
		return obj, true
	}
	child, exists := obj[st.field]
	if !exists {
		return obj, false
	}
	child, ok = delSteps(child, steps[1:])
	if !ok {
		return obj, false
	}
	obj[st.field] = child
	return obj, true
}
