// Package value implements the JSON data model shared by every layer of
// couchgo: the object-managed cache stores values, N1QL expressions
// evaluate over them, and the view and GSI engines index them.
//
// A value is one of:
//
//	Missing            — the distinguished "no such field" value
//	nil                — JSON null
//	bool               — JSON true/false
//	float64            — JSON number
//	string             — JSON string
//	[]any              — JSON array
//	map[string]any     — JSON object
//
// This is the natural encoding/json representation plus an explicit
// MISSING, which N1QL distinguishes from NULL (a field that is absent
// sorts below, and compares differently from, a field that is null).
package value

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind enumerates the N1QL type lattice in collation order. The order of
// the constants is the order values sort in ORDER BY and in index keys:
// MISSING < NULL < FALSE < TRUE < number < string < array < object.
type Kind int

const (
	MISSING Kind = iota
	NULL
	BOOLEAN
	NUMBER
	STRING
	ARRAY
	OBJECT
	// BINARY covers non-JSON (memcached-style blob) documents. It sorts
	// above OBJECT; it never appears inside JSON documents.
	BINARY
)

// String returns the N1QL name of the kind.
func (k Kind) String() string {
	switch k {
	case MISSING:
		return "missing"
	case NULL:
		return "null"
	case BOOLEAN:
		return "boolean"
	case NUMBER:
		return "number"
	case STRING:
		return "string"
	case ARRAY:
		return "array"
	case OBJECT:
		return "object"
	case BINARY:
		return "binary"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

type missingType struct{}

func (missingType) String() string { return "MISSING" }

// Missing is the singleton MISSING value. Field access on a document
// that lacks the field yields Missing, never nil, so that expressions
// can distinguish absent data from explicit nulls.
var Missing any = missingType{}

// Binary wraps a non-JSON document body. The data service stores
// arbitrary blobs (the memcached heritage of the system); the query and
// index layers treat them as opaque.
type Binary []byte

// IsMissing reports whether v is the MISSING value.
func IsMissing(v any) bool {
	_, ok := v.(missingType)
	return ok
}

// KindOf classifies v into the N1QL type lattice.
func KindOf(v any) Kind {
	switch v.(type) {
	case missingType:
		return MISSING
	case nil:
		return NULL
	case bool:
		return BOOLEAN
	case float64, int, int64, uint64, json.Number:
		return NUMBER
	case string:
		return STRING
	case []any:
		return ARRAY
	case map[string]any:
		return OBJECT
	case Binary:
		return BINARY
	}
	return MISSING
}

// AsNumber coerces the numeric representations KindOf accepts into a
// float64. ok is false for non-numbers.
func AsNumber(v any) (f float64, ok bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case int:
		return float64(n), true
	case int64:
		return float64(n), true
	case uint64:
		return float64(n), true
	case json.Number:
		f, err := n.Float64()
		return f, err == nil
	}
	return 0, false
}

// Truthy reports whether v satisfies a WHERE clause. Per N1QL, only the
// boolean TRUE qualifies; MISSING, NULL, FALSE, and non-booleans do not.
func Truthy(v any) bool {
	b, ok := v.(bool)
	return ok && b
}

// Parse decodes JSON bytes into the value representation. Invalid JSON
// is returned as a Binary value (the data service accepts arbitrary
// blobs), with ok=false so callers that require JSON can reject it.
func Parse(data []byte) (v any, ok bool) {
	// Unmarshal, not a Decoder: it refuses anything but white space after
	// the value (Decoder.More reports false before a stray ] or }).
	if err := json.Unmarshal(data, &v); err != nil {
		return Binary(append([]byte(nil), data...)), false
	}
	return v, true
}

// Valid reports whether Parse would accept data, without decoding it:
// JSON by json.Valid whose every number fits a float64 (the decoder
// refuses 1e999). For a reader that needs the verdict and not the value.
func Valid(data []byte) bool {
	if !json.Valid(data) {
		return false
	}
	for i := 0; i < len(data); i++ {
		switch c := data[i]; {
		case c == '"':
			for i++; data[i] != '"'; i++ { // valid, so the string ends
				if data[i] == '\\' {
					i++
				}
			}
		case c == '-' || '0' <= c && c <= '9':
			j := i + 1
			for j < len(data) && strings.IndexByte("+-.eE0123456789", data[j]) >= 0 {
				j++
			}
			if _, err := strconv.ParseFloat(string(data[i:j]), 64); err != nil {
				return false
			}
			i = j - 1
		}
	}
	return true
}

// MustParse decodes JSON and panics on failure. For tests and examples.
func MustParse(data string) any {
	v, ok := Parse([]byte(data))
	if !ok {
		panic("value: invalid JSON: " + data)
	}
	return v
}

// Marshal encodes a value back to JSON bytes. MISSING inside arrays or
// objects is encoded as null (it cannot appear in stored documents, but
// expression results may contain it). Binary values are returned as-is.
func Marshal(v any) []byte {
	if b, ok := v.(Binary); ok {
		return []byte(b)
	}
	data, err := json.Marshal(scrub(v))
	if err != nil {
		return []byte("null")
	}
	return data
}

func scrub(v any) any {
	switch t := v.(type) {
	case missingType:
		return nil
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = scrub(e)
		}
		return out
	case map[string]any:
		out := make(map[string]any, len(t))
		for k, e := range t {
			out[k] = scrub(e)
		}
		return out
	default:
		return v
	}
}

// Copy returns a deep copy of v. Arrays and objects are duplicated;
// scalars are returned unchanged.
func Copy(v any) any {
	switch t := v.(type) {
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = Copy(e)
		}
		return out
	case map[string]any:
		out := make(map[string]any, len(t))
		for k, e := range t {
			out[k] = Copy(e)
		}
		return out
	case Binary:
		return Binary(append([]byte(nil), t...))
	default:
		return t
	}
}

// Field returns v.name, or Missing if v is not an object or lacks name.
func Field(v any, name string) any {
	obj, ok := v.(map[string]any)
	if !ok {
		return Missing
	}
	f, ok := obj[name]
	if !ok {
		return Missing
	}
	return f
}

// Index returns v[i], or Missing if v is not an array or i is out of
// range. Negative indexes count from the end, as in N1QL.
func Index(v any, i int) any {
	arr, ok := v.([]any)
	if !ok {
		return Missing
	}
	if i < 0 {
		i += len(arr)
	}
	if i < 0 || i >= len(arr) {
		return Missing
	}
	return arr[i]
}

// FieldNames returns the sorted field names of an object, or nil.
func FieldNames(v any) []string {
	obj, ok := v.(map[string]any)
	if !ok {
		return nil
	}
	names := make([]string, 0, len(obj))
	for k := range obj {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// FormatNumber renders a float64 the way JSON does: integers without a
// fractional part, everything else in shortest form.
func FormatNumber(f float64) string {
	if f == math.Trunc(f) && math.Abs(f) < 1e15 {
		return strconv.FormatInt(int64(f), 10)
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}
