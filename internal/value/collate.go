package value

import "strings"

// Collation implements the total order N1QL uses for ORDER BY, index
// keys, and comparison predicates:
//
//	MISSING < NULL < FALSE < TRUE < numbers < strings < arrays < objects
//
// Numbers order numerically, strings lexicographically (byte order),
// arrays element-wise then by length, objects by sorted field name then
// field value then by field count.

// Compare returns -1, 0, or +1 as a sorts before, equal to, or after b.
func Compare(a, b any) int {
	ka, kb := KindOf(a), KindOf(b)
	if ka != kb {
		if ka < kb {
			return -1
		}
		return 1
	}
	switch ka {
	case MISSING, NULL:
		return 0
	case BOOLEAN:
		ab, bb := a.(bool), b.(bool)
		switch {
		case ab == bb:
			return 0
		case !ab:
			return -1
		default:
			return 1
		}
	case NUMBER:
		af, _ := AsNumber(a)
		bf, _ := AsNumber(b)
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	case STRING:
		return strings.Compare(a.(string), b.(string))
	case ARRAY:
		aa, ba := a.([]any), b.([]any)
		n := len(aa)
		if len(ba) < n {
			n = len(ba)
		}
		for i := 0; i < n; i++ {
			if c := Compare(aa[i], ba[i]); c != 0 {
				return c
			}
		}
		switch {
		case len(aa) < len(ba):
			return -1
		case len(aa) > len(ba):
			return 1
		default:
			return 0
		}
	case OBJECT:
		an, bn := FieldNames(a), FieldNames(b)
		n := len(an)
		if len(bn) < n {
			n = len(bn)
		}
		for i := 0; i < n; i++ {
			if an[i] != bn[i] {
				if an[i] < bn[i] {
					return -1
				}
				return 1
			}
			ao := a.(map[string]any)[an[i]]
			bo := b.(map[string]any)[bn[i]]
			if c := Compare(ao, bo); c != 0 {
				return c
			}
		}
		switch {
		case len(an) < len(bn):
			return -1
		case len(an) > len(bn):
			return 1
		default:
			return 0
		}
	case BINARY:
		ab, bb := a.(Binary), b.(Binary)
		switch {
		case string(ab) < string(bb):
			return -1
		case string(ab) > string(bb):
			return 1
		default:
			return 0
		}
	}
	return 0
}

// EncodeKey encodes a value into a byte string whose bytewise order
// matches collation order. Index engines use this for on-disk and
// in-memory key comparisons without re-parsing values.
//
// Layout: one type-tag byte, then a type-specific payload that is
// order-preserving under bytes.Compare.
//
// The buffer starts with room for 64 bytes, what a document ID or a few
// scalars take, so a key (and a tree key built on it) is one allocation
// rather than one per doubling.
func EncodeKey(v any) []byte {
	return appendKey(make([]byte, 0, 64), v)
}

func appendKey(out []byte, v any) []byte {
	switch KindOf(v) {
	case MISSING:
		return append(out, 0x01)
	case NULL:
		return append(out, 0x02)
	case BOOLEAN:
		if v.(bool) {
			return append(out, 0x04)
		}
		return append(out, 0x03)
	case NUMBER:
		f, _ := AsNumber(v)
		return appendNumberKey(append(out, 0x05), f)
	case STRING:
		// Escape 0x00 so the terminator is unambiguous: 0x00 -> 0x00 0xFF.
		out = append(out, 0x06)
		for i := 0; i < len(v.(string)); i++ {
			c := v.(string)[i]
			out = append(out, c)
			if c == 0x00 {
				out = append(out, 0xFF)
			}
		}
		return append(out, 0x00, 0x00)
	case ARRAY:
		out = append(out, 0x07)
		for _, e := range v.([]any) {
			out = appendKey(out, e)
		}
		return append(out, 0x00)
	case OBJECT:
		out = append(out, 0x08)
		for _, name := range FieldNames(v) {
			out = appendKey(out, name)
			out = appendKey(out, v.(map[string]any)[name])
		}
		return append(out, 0x00)
	case BINARY:
		out = append(out, 0x09)
		return append(out, v.(Binary)...)
	}
	return out
}

// appendNumberKey writes an order-preserving 8-byte encoding of f:
// flip the sign bit for non-negatives, flip all bits for negatives.
func appendNumberKey(out []byte, f float64) []byte {
	bits := float64bits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	return append(out,
		byte(bits>>56), byte(bits>>48), byte(bits>>40), byte(bits>>32),
		byte(bits>>24), byte(bits>>16), byte(bits>>8), byte(bits))
}
