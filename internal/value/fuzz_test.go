package value

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzCollate checks the collation invariants the index engines depend
// on: Compare is a total preorder (reflexive, antisymmetric,
// transitive) over anything Parse can produce — including the Binary
// fallback for non-JSON bytes — and EncodeKey's bytewise order agrees
// with Compare wherever Compare distinguishes the values. (-0 and 0
// compare equal but encode differently, so byte equality is not
// required for ties.)
func FuzzCollate(f *testing.F) {
	f.Add([]byte("null"), []byte("1"), []byte(`"s"`))
	f.Add([]byte("-0"), []byte("0"), []byte("1e3"))
	f.Add([]byte(`[1,"a"]`), []byte(`[1,"a",null]`), []byte(`{"a":1}`))
	f.Add([]byte(`{"a":1,"b":2}`), []byte(`{"a":1}`), []byte("not json"))
	f.Add([]byte("true"), []byte("false"), []byte(`""`))
	f.Add([]byte(`"a"`), []byte("\"a\x00\""), []byte(`"ab"`))
	f.Fuzz(func(t *testing.T, da, db, dc []byte) {
		va, _ := Parse(da)
		vb, _ := Parse(db)
		vc, _ := Parse(dc)
		for _, v := range []any{va, vb, vc} {
			if Compare(v, v) != 0 {
				t.Fatalf("Compare not reflexive for %#v", v)
			}
		}
		ab, bc, ac := Compare(va, vb), Compare(vb, vc), Compare(va, vc)
		if ba := Compare(vb, va); ba != -ab {
			t.Fatalf("Compare not antisymmetric: Compare(a,b)=%d Compare(b,a)=%d", ab, ba)
		}
		if ab <= 0 && bc <= 0 && ac > 0 {
			t.Fatalf("Compare not transitive: a<=b (%d), b<=c (%d), but a>c (%d)", ab, bc, ac)
		}
		if ab >= 0 && bc >= 0 && ac < 0 {
			t.Fatalf("Compare not transitive: a>=b (%d), b>=c (%d), but a<c (%d)", ab, bc, ac)
		}
		if Equal(va, vb) != (ab == 0) {
			t.Fatalf("Equal disagrees with Compare==0 (Compare=%d)", ab)
		}
		if ab != 0 {
			ka, kb := EncodeKey(va), EncodeKey(vb)
			if sgn(bytes.Compare(ka, kb)) != ab {
				t.Fatalf("EncodeKey order disagrees with Compare: Compare=%d, bytes.Compare=%d\n a=%#v\n b=%#v",
					ab, bytes.Compare(ka, kb), va, vb)
			}
		}
	})
}

func sgn(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	default:
		return 0
	}
}

// FuzzPathParse checks that sub-document path parsing never panics,
// that evaluating any parsed path against a document never panics, and
// that String() is a stable canonical form: it re-parses, and
// re-parsing is idempotent.
func FuzzPathParse(f *testing.F) {
	for _, s := range []string{
		"", "a", "a.b", "a[0]", "a[-1].b[2]", "[3]", "a..b",
		"a[", "a]", "a.b.", "ab[12][3].c", "a[999999999999999999999]",
	} {
		f.Add(s)
	}
	doc := MustParse(`{"a": {"b": [1, 2, {"c": null}]}, "x": "y"}`)
	f.Fuzz(func(t *testing.T, s string) {
		p, ok := ParsePath(s)
		_ = p.Eval(doc) // must not panic, even for the zero Path
		if !ok {
			return
		}
		s2 := p.String()
		p2, ok2 := ParsePath(s2)
		if !ok2 {
			t.Fatalf("canonical form %q of %q does not re-parse", s2, s)
		}
		if s3 := p2.String(); s3 != s2 {
			t.Fatalf("String not stable: %q -> %q", s2, s3)
		}
		if p2.Len() != p.Len() {
			t.Fatalf("round-trip changed step count: %d -> %d (%q -> %q)", p.Len(), p2.Len(), s, s2)
		}
	})
}

// FuzzParseValid holds Parse and Valid to one verdict on every input (a
// primary index validates where a secondary index parses, and the two
// must hold the same documents), and Parse to the decoder it replaced:
// json.Decoder plus More, which is kept here as the reference. The two
// may differ only where the reference was wrong: it took a value
// followed by a stray ] or } for the value alone.
func FuzzParseValid(f *testing.F) {
	for _, s := range []string{
		`{"a":1}`, `{"a":1}]`, `1 ]`, `{"a":1}}`, "{\"a\":1} \n", `[1] [2]`, `1 2`, ``, ` `,
		`1e999`, `{"n":[-1e400]}`, `1e-999`, `"1e999"`, `"\\"`, `"\"1e999"`, `"\ud800"`, "\xff",
		`-`, `1.`, `[1,]`, `{"a":{"b":[true,false,null,"x\u00e9"]}}`, `12345678901234567890e300`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := append([]byte(nil), data...)
		v, ok := Parse(data)
		if valid := Valid(data); valid != ok {
			t.Fatalf("Parse ok=%v but Valid=%v for %q", ok, valid, data)
		}
		if !bytes.Equal(data, in) {
			t.Fatalf("input %q changed to %q", in, data)
		}
		if b, isBinary := v.(Binary); !ok && (!isBinary || !bytes.Equal(b, data)) {
			t.Fatalf("rejected %q came back as %#v, not as its bytes", data, v)
		}
		var ref any
		dec := json.NewDecoder(bytes.NewReader(data))
		refOK := dec.Decode(&ref) == nil && !dec.More()
		switch {
		case ok && refOK:
			if !reflect.DeepEqual(v, ref) {
				t.Fatalf("%q parses to %#v, the reference decoder to %#v", data, v, ref)
			}
		case ok != refOK:
			rest := bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")
			if ok || len(rest) == 0 || (rest[0] != ']' && rest[0] != '}') {
				t.Fatalf("Parse ok=%v, the reference decoder ok=%v for %q: not a stray bracket", ok, refOK, data)
			}
		}
	})
}
