package n1ql

import (
	"testing"

	"couchgo/internal/value"
)

func TestFormalizeCanonicalForms(t *testing.T) {
	// All of these denote the same property for alias "p".
	cases := map[string]string{
		"email":          "self.email",
		"p.email":        "self.email",
		"p.address.city": "self.address.city",
		"address.city":   "self.address.city",
		"p":              "self",
		"meta().id":      "meta().id",
		"meta(p).id":     "meta().id",
		"meta(q).id":     "meta(q).id", // other alias untouched
		"age > 21":       "(self.age > 21)",
		"p.age > $min":   "(self.age > $min)",
		"UPPER(name)":    "UPPER(self.name)",
		"ANY c IN categories SATISFIES c = 'x' END": "ANY c IN self.categories SATISFIES (c = \"x\") END",
		"ARRAY s.order_id FOR s IN history END":     "ARRAY s.order_id FOR s IN self.history END",
		"[a, b]":                                    "[self.a, self.b]",
		"CASE WHEN a THEN b END":                    "CASE WHEN self.a THEN self.b END",
		"x BETWEEN lo AND hi":                       "(self.x BETWEEN self.lo AND self.hi)",
		"items[0].price":                            "self.items[0].price",
	}
	for src, want := range cases {
		e, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		got := Formalize(e, "p").String()
		if got != want {
			t.Errorf("Formalize(%q) = %q, want %q", src, got, want)
		}
	}
}

func TestFormalizeEquivalenceIsTheMatchKey(t *testing.T) {
	// Index defined on keyspace "Profile" with expr "email"; query with
	// alias "p" uses "p.email". They must formalize identically.
	idx, _ := ParseExpr("email")
	q, _ := ParseExpr("p.email")
	if Formalize(idx, "Profile").String() != Formalize(q, "p").String() {
		t.Error("index/query expression match failed")
	}
}

func TestFormalizedExprStillEvaluates(t *testing.T) {
	doc := value.MustParse(`{"email": "a@x.com", "tags": ["t1"]}`)
	for src, want := range map[string]any{
		"p.email":                              "a@x.com",
		"meta(p).id":                           "d1",
		"ANY t IN tags SATISFIES t = 't1' END": true,
	} {
		e, _ := ParseExpr(src)
		sc := NewScope("self")
		f := sc.Resolve(Formalize(e, "p"))
		got, err := Eval(f, sc.NewContext(doc, Meta{ID: "d1"}))
		if err != nil || value.Compare(got, want) != 0 {
			t.Errorf("eval formalized %q = %v (%v), want %v", src, got, err, want)
		}
	}
}

func TestConjunctsOf(t *testing.T) {
	e, _ := ParseExpr("a = 1 AND b = 2 AND (c = 3 OR d = 4)")
	cj := ConjunctsOf(e)
	if len(cj) != 3 {
		t.Fatalf("conjuncts: %d", len(cj))
	}
	if ConjunctsOf(nil) != nil {
		t.Error("nil predicate has no conjuncts")
	}
	single, _ := ParseExpr("a = 1")
	if len(ConjunctsOf(single)) != 1 {
		t.Error("single conjunct")
	}
}

func TestIsConstant(t *testing.T) {
	cases := map[string]bool{
		"1 + 2":       true,
		"$p":          true,
		"'x' || 'y'":  true,
		"[1, 2]":      true,
		"a":           false,
		"meta().id":   false,
		"[1, a]":      false,
		"UPPER('x')":  true,
		"UPPER(name)": false,
	}
	for src, want := range cases {
		e, _ := ParseExpr(src)
		if got := IsConstant(e); got != want {
			t.Errorf("IsConstant(%q) = %v", src, got)
		}
	}
}
