package n1ql

import (
	"testing"

	"couchgo/internal/value"
)

// evalStr evaluates src, resolved for alias p, over ctx's document,
// metadata and parameters.
func evalStr(t *testing.T, src string, ctx *Context) any {
	t.Helper()
	e, err := ParseExpr(src)
	if err != nil {
		t.Fatalf("ParseExpr(%q): %v", src, err)
	}
	sc := NewScope("p")
	e = sc.Resolve(e)
	row := sc.NewContext(ctx.Slots[DocSlot], *ctx.Slots[MetaSlot].(*Meta))
	row.Params = ctx.Params
	v, err := Eval(e, row)
	if err != nil {
		t.Fatalf("Eval(%q): %v", src, err)
	}
	return v
}

func testCtx() *Context {
	doc := value.MustParse(`{
		"name": "Dipti",
		"email": "dipti@couchbase.com",
		"age": 30,
		"vip": true,
		"nothing": null,
		"categories": ["db", "nosql", "cloud"],
		"orders": [
			{"id": "o1", "total": 10},
			{"id": "o2", "total": 25}
		],
		"address": {"city": "SF", "zip": "94105"}
	}`)
	ctx := NewScope("p").NewContext(doc, Meta{ID: "borkar123", CAS: 42, Seqno: 7})
	ctx.Params = map[string]any{"1": "user42", "min": 18.0}
	return ctx
}

func TestEvalIdentifiersAndPaths(t *testing.T) {
	ctx := testCtx()
	cases := map[string]any{
		"name":            "Dipti",
		"p.name":          "Dipti",
		"address.city":    "SF",
		"p.address.zip":   "94105",
		"categories[0]":   "db",
		"categories[-1]":  "cloud",
		"orders[1].total": 25.0,
		"orders[1].id":    "o2",
		"nothing":         nil,
	}
	for src, want := range cases {
		got := evalStr(t, src, ctx)
		if value.Compare(got, want) != 0 || value.IsMissing(got) != value.IsMissing(want) {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
	for _, src := range []string{"ghost", "p.ghost", "address.ghost", "categories[99]", "name.sub"} {
		if !value.IsMissing(evalStr(t, src, ctx)) {
			t.Errorf("%s should be MISSING", src)
		}
	}
}

func TestEvalMeta(t *testing.T) {
	ctx := testCtx()
	if got := evalStr(t, "meta().id", ctx); got != "borkar123" {
		t.Errorf("meta().id = %v", got)
	}
	if got := evalStr(t, "meta(p).cas", ctx); got != 42.0 {
		t.Errorf("meta(p).cas = %v", got)
	}
	if !value.IsMissing(evalStr(t, "meta(zz).id", ctx)) {
		t.Error("meta of unknown alias should be MISSING")
	}
}

func TestEvalParams(t *testing.T) {
	ctx := testCtx()
	if got := evalStr(t, "$1", ctx); got != "user42" {
		t.Errorf("$1 = %v", got)
	}
	if got := evalStr(t, "age >= $min", ctx); got != true {
		t.Errorf("age >= $min = %v", got)
	}
	e, _ := ParseExpr("$nope")
	if _, err := Eval(e, ctx); err == nil {
		t.Error("missing parameter should error")
	}
}

func TestEvalComparisonSemantics(t *testing.T) {
	ctx := testCtx()
	cases := map[string]any{
		"age = 30":       true,
		"age != 30":      false,
		"age < 31":       true,
		"age <= 30":      true,
		"age > 30":       false,
		"name = 'Dipti'": true,
		"name < 'Z'":     true,
		// NULL and MISSING propagation.
		"nothing = 1":       nil,
		"ghost = 1":         value.Missing,
		"ghost = ghost":     value.Missing,
		"nothing = nothing": nil,
		// Cross-type comparison via collation.
		"age < 'str'": true, // numbers sort before strings
	}
	for src, want := range cases {
		got := evalStr(t, src, ctx)
		if value.IsMissing(want) != value.IsMissing(got) || value.Compare(got, want) != 0 {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestEvalLogicSemantics(t *testing.T) {
	ctx := testCtx()
	cases := map[string]any{
		"TRUE AND TRUE":    true,
		"TRUE AND FALSE":   false,
		"FALSE AND ghost":  false, // FALSE dominates MISSING
		"ghost AND TRUE":   value.Missing,
		"nothing AND TRUE": nil,
		"TRUE OR ghost":    true, // TRUE dominates
		"ghost OR FALSE":   value.Missing,
		"nothing OR FALSE": nil,
		"FALSE OR FALSE":   false,
		"NOT TRUE":         false,
		"NOT FALSE":        true,
		"NOT ghost":        value.Missing,
		"NOT nothing":      nil,
		"NOT 42":           nil, // non-boolean behaves as NULL
	}
	for src, want := range cases {
		got := evalStr(t, src, ctx)
		if value.IsMissing(want) != value.IsMissing(got) || value.Compare(got, want) != 0 {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestEvalArithmetic(t *testing.T) {
	ctx := testCtx()
	cases := map[string]any{
		"1 + 2":        3.0,
		"age * 2":      60.0,
		"10 / 4":       2.5,
		"10 / 0":       nil,
		"10 % 3":       1.0,
		"10 % 0":       nil,
		"-age":         -30.0,
		"age + 'x'":    nil, // non-number -> NULL
		"ghost + 1":    value.Missing,
		"'a' || 'b'":   "ab",
		"'a' || 1":     nil,
		"ghost || 'b'": value.Missing,
	}
	for src, want := range cases {
		got := evalStr(t, src, ctx)
		if value.IsMissing(want) != value.IsMissing(got) || value.Compare(got, want) != 0 {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestEvalLike(t *testing.T) {
	ctx := testCtx()
	cases := map[string]any{
		"name LIKE 'D%'":               true,
		"name LIKE '%ipti'":            true,
		"name LIKE 'D_pti'":            true,
		"name LIKE 'd%'":               false,
		"email LIKE '%@couchbase.com'": true,
		"name NOT LIKE 'Z%'":           true,
		"age LIKE 'x'":                 nil,
		"ghost LIKE 'x'":               value.Missing,
		// Regex metacharacters in the pattern are literal.
		"email LIKE '%couchbase.com'": true,
		"name LIKE 'D.pti'":           false,
	}
	for src, want := range cases {
		got := evalStr(t, src, ctx)
		if value.IsMissing(want) != value.IsMissing(got) || value.Compare(got, want) != 0 {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestEvalInBetween(t *testing.T) {
	ctx := testCtx()
	cases := map[string]any{
		"age IN [10, 30, 50]":       true,
		"age IN [1, 2]":             false,
		"age IN [1, NULL]":          nil, // unknown membership with NULL present
		"'db' IN categories":        true,
		"age IN 42":                 nil, // not an array
		"ghost IN [1]":              value.Missing,
		"age BETWEEN 18 AND 65":     true,
		"age BETWEEN 31 AND 65":     false,
		"age NOT BETWEEN 31 AND 65": true,
	}
	for src, want := range cases {
		got := evalStr(t, src, ctx)
		if value.IsMissing(want) != value.IsMissing(got) || value.Compare(got, want) != 0 {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestEvalIsPredicates(t *testing.T) {
	ctx := testCtx()
	cases := map[string]any{
		"nothing IS NULL":     true,
		"name IS NULL":        false,
		"ghost IS NULL":       value.Missing,
		"nothing IS NOT NULL": false,
		"ghost IS MISSING":    true,
		"name IS MISSING":     false,
		"nothing IS MISSING":  false,
		"name IS NOT MISSING": true,
		"name IS VALUED":      true,
		"nothing IS VALUED":   false,
		"ghost IS VALUED":     false,
		"ghost IS NOT VALUED": true,
	}
	for src, want := range cases {
		got := evalStr(t, src, ctx)
		if value.IsMissing(want) != value.IsMissing(got) || value.Compare(got, want) != 0 {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestEvalCollectionPredicates(t *testing.T) {
	ctx := testCtx()
	cases := map[string]any{
		"ANY c IN categories SATISFIES c = 'nosql' END":     true,
		"ANY c IN categories SATISFIES c = 'zzz' END":       false,
		"EVERY c IN categories SATISFIES LENGTH(c) > 1 END": true,
		"EVERY c IN categories SATISFIES c = 'db' END":      false,
		"ANY o IN orders SATISFIES o.total > 20 END":        true,
		"EVERY o IN orders SATISFIES o.total > 5 END":       true,
		"ANY x IN ghost SATISFIES TRUE END":                 value.Missing,
		"ANY x IN age SATISFIES TRUE END":                   nil,
		"EVERY x IN [] SATISFIES FALSE END":                 true, // vacuous
		"ANY x IN [] SATISFIES TRUE END":                    false,
	}
	for src, want := range cases {
		got := evalStr(t, src, ctx)
		if value.IsMissing(want) != value.IsMissing(got) || value.Compare(got, want) != 0 {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestEvalArrayComprehension(t *testing.T) {
	ctx := testCtx()
	got := evalStr(t, "ARRAY o.id FOR o IN orders END", ctx)
	want := []any{"o1", "o2"}
	if value.Compare(got, want) != 0 {
		t.Errorf("comprehension = %v", got)
	}
	got = evalStr(t, "ARRAY o.id FOR o IN orders WHEN o.total > 20 END", ctx)
	if value.Compare(got, []any{"o2"}) != 0 {
		t.Errorf("filtered comprehension = %v", got)
	}
	got = evalStr(t, "ARRAY x FOR x IN ghost END", ctx)
	if !value.IsMissing(got) {
		t.Errorf("comprehension over missing = %v", got)
	}
}

func TestEvalCase(t *testing.T) {
	ctx := testCtx()
	cases := map[string]any{
		"CASE WHEN age > 40 THEN 'old' WHEN age > 20 THEN 'mid' ELSE 'young' END": "mid",
		"CASE WHEN age > 40 THEN 'old' END":                                       nil,
		"CASE name WHEN 'Dipti' THEN 1 WHEN 'Bob' THEN 2 ELSE 0 END":              1.0,
		"CASE name WHEN 'Bob' THEN 2 ELSE 0 END":                                  0.0,
	}
	for src, want := range cases {
		got := evalStr(t, src, ctx)
		if value.Compare(got, want) != 0 {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestEvalConstructors(t *testing.T) {
	ctx := testCtx()
	got := evalStr(t, "[name, age, ghost]", ctx)
	want := []any{"Dipti", 30.0, nil} // MISSING -> NULL inside arrays
	if value.Compare(got, want) != 0 {
		t.Errorf("array = %v", got)
	}
	got = evalStr(t, "{'n': name, 'g': ghost, 'a': age}", ctx)
	obj := got.(map[string]any)
	if obj["n"] != "Dipti" || obj["a"] != 30.0 {
		t.Errorf("object = %v", obj)
	}
	if _, ok := obj["g"]; ok {
		t.Error("MISSING field should be omitted from objects")
	}
}

func TestEvalFunctions(t *testing.T) {
	ctx := testCtx()
	cases := map[string]any{
		"UPPER(name)":                          "DIPTI",
		"LOWER('ABC')":                         "abc",
		"LENGTH(name)":                         5.0,
		"SUBSTR(name, 1)":                      "ipti",
		"SUBSTR(name, 0, 3)":                   "Dip",
		"SUBSTR(name, -2)":                     "ti",
		"CONTAINS(email, 'couch')":             true,
		"POSITION(email, '@')":                 5.0,
		"TRIM('  x  ')":                        "x",
		"REPLACE('aaa', 'a', 'b')":             "bbb",
		"ABS(-5)":                              5.0,
		"CEIL(1.2)":                            2.0,
		"FLOOR(1.8)":                           1.0,
		"ROUND(1.5)":                           2.0,
		"SQRT(16)":                             4.0,
		"POWER(2, 10)":                         1024.0,
		"ARRAY_LENGTH(categories)":             3.0,
		"ARRAY_CONTAINS(categories, 'db')":     true,
		"ARRAY_MIN([3, 1, 2])":                 1.0,
		"ARRAY_MAX([3, 1, 2])":                 3.0,
		"TYPE(age)":                            "number",
		"TYPE(ghost)":                          "missing",
		"TO_STRING(42)":                        "42",
		"TO_NUMBER('3.5')":                     3.5,
		"TO_NUMBER(TRUE)":                      1.0,
		"IFMISSING(ghost, 'dflt')":             "dflt",
		"IFMISSING(name, 'dflt')":              "Dipti",
		"IFNULL(nothing, 'dflt')":              "dflt",
		"IFMISSINGORNULL(ghost, nothing, 'x')": "x",
		"COALESCE(nothing, age)":               30.0,
		"GREATEST(1, 9, 4)":                    9.0,
		"LEAST(5, 2, 8)":                       2.0,
		"UPPER(ghost)":                         value.Missing,
		"UPPER(nothing)":                       nil,
		"UPPER(42)":                            nil,
	}
	for src, want := range cases {
		got := evalStr(t, src, ctx)
		if value.IsMissing(want) != value.IsMissing(got) || value.Compare(got, want) != 0 {
			t.Errorf("%s = %v, want %v", src, got, want)
		}
	}
}

func TestEvalFunctionErrors(t *testing.T) {
	ctx := testCtx()
	for _, src := range []string{"NO_SUCH_FN(1)", "UPPER()", "SUBSTR('x')"} {
		e, err := ParseExpr(src)
		if err != nil {
			continue
		}
		if _, err := Eval(e, ctx); err == nil {
			t.Errorf("Eval(%q) should error", src)
		}
	}
	// Aggregates outside grouping context error.
	e, _ := ParseExpr("SUM(age)")
	if _, err := Eval(e, ctx); err == nil {
		t.Error("aggregate outside GROUP BY should error")
	}
}

func TestEvalSplit(t *testing.T) {
	ctx := testCtx()
	got := evalStr(t, "SPLIT('a,b,c', ',')", ctx)
	if value.Compare(got, []any{"a", "b", "c"}) != 0 {
		t.Errorf("split = %v", got)
	}
	got = evalStr(t, "SPLIT('a b  c')", ctx)
	if value.Compare(got, []any{"a", "b", "c"}) != 0 {
		t.Errorf("split fields = %v", got)
	}
}

func TestEvalObjectFunctions(t *testing.T) {
	ctx := testCtx()
	got := evalStr(t, "OBJECT_NAMES(address)", ctx)
	if value.Compare(got, []any{"city", "zip"}) != 0 {
		t.Errorf("object_names = %v", got)
	}
	got = evalStr(t, "OBJECT_VALUES(address)", ctx)
	if value.Compare(got, []any{"SF", "94105"}) != 0 {
		t.Errorf("object_values = %v", got)
	}
}

func TestAggregators(t *testing.T) {
	mk := func(name string, distinct bool) *Aggregator {
		return NewAggregator(&FuncCall{Name: name, Distinct: distinct})
	}
	sum := mk("SUM", false)
	for _, v := range []any{1.0, 2.0, 3.0, nil, value.Missing} {
		sum.Add(v)
	}
	if sum.Result() != 6.0 {
		t.Errorf("SUM = %v", sum.Result())
	}
	cnt := mk("COUNT", false)
	for _, v := range []any{1.0, "x", nil, value.Missing, true} {
		cnt.Add(v)
	}
	if cnt.Result() != 3.0 {
		t.Errorf("COUNT = %v (nulls/missing must not count)", cnt.Result())
	}
	avg := mk("AVG", false)
	avg.Add(2.0)
	avg.Add(4.0)
	if avg.Result() != 3.0 {
		t.Errorf("AVG = %v", avg.Result())
	}
	if mk("AVG", false).Result() != nil {
		t.Error("empty AVG should be NULL")
	}
	if mk("SUM", false).Result() != nil {
		t.Error("empty SUM should be NULL")
	}
	if mk("COUNT", false).Result() != 0.0 {
		t.Error("empty COUNT should be 0")
	}
	mn, mx := mk("MIN", false), mk("MAX", false)
	for _, v := range []any{3.0, 1.0, 2.0} {
		mn.Add(v)
		mx.Add(v)
	}
	if mn.Result() != 1.0 || mx.Result() != 3.0 {
		t.Errorf("MIN/MAX = %v/%v", mn.Result(), mx.Result())
	}
	dc := mk("COUNT", true)
	for _, v := range []any{1.0, 1.0, 2.0, 2.0, 3.0} {
		dc.Add(v)
	}
	if dc.Result() != 3.0 {
		t.Errorf("COUNT(DISTINCT) = %v", dc.Result())
	}
	agg := mk("ARRAY_AGG", false)
	agg.Add("a")
	agg.Add("b")
	if value.Compare(agg.Result(), []any{"a", "b"}) != 0 {
		t.Errorf("ARRAY_AGG = %v", agg.Result())
	}
}

func TestHasAggregate(t *testing.T) {
	e, _ := ParseExpr("COUNT(*) + 1")
	if !HasAggregate(e) {
		t.Error("COUNT(*) + 1 has aggregate")
	}
	e, _ = ParseExpr("UPPER(name)")
	if HasAggregate(e) {
		t.Error("UPPER has no aggregate")
	}
	e, _ = ParseExpr("CASE WHEN SUM(x) > 1 THEN 1 END")
	if !HasAggregate(e) {
		t.Error("aggregate inside CASE")
	}
}

// A comprehension variable gets a slot of its own: it shadows an outer
// name inside the comprehension and leaves it intact after END.
func TestComprehensionVariableShadowsAndRestores(t *testing.T) {
	ctx := testCtx()
	got := evalStr(t, "[ARRAY name FOR name IN categories END, name, ANY p IN [1] SATISFIES p = 1 END, p.age]", ctx)
	want := []any{[]any{"db", "nosql", "cloud"}, "Dipti", true, 30.0}
	if value.Compare(got, want) != 0 {
		t.Errorf("got %v, want %v", got, want)
	}
	// Unresolved, a name is unbound and a comprehension refuses to run.
	e, _ := ParseExpr("name")
	if v, err := Eval(e, ctx); err != nil || !value.IsMissing(v) {
		t.Errorf("unresolved identifier = %v, %v", v, err)
	}
	e, _ = ParseExpr("ARRAY x FOR x IN [1] END")
	if _, err := Eval(e, ctx); err == nil {
		t.Error("unresolved comprehension evaluated")
	}
}

func TestEvalSelfAndBind(t *testing.T) {
	ctx := testCtx()
	v := evalStr(t, "self", ctx)
	if value.Field(v, "name") != "Dipti" {
		t.Error("self should be the whole document")
	}
	// A name bound before resolving reads its slot, not a field of the
	// document; an aggregate call bound the same way reads its result.
	sc := NewScope("p")
	extra := sc.Bind("name")
	agg, _ := ParseExpr("SUM(age)")
	sum := sc.BindAggregate(agg.(*FuncCall))
	e, _ := ParseExpr("[name, SUM(age) + 1, meta().seqno]")
	e = sc.Resolve(e)
	row := sc.NewContext(ctx.Slots[DocSlot], Meta{Seqno: 7})
	row.Slots[extra], row.Slots[sum] = "bound", 41.0
	if got, err := Eval(e, row); err != nil || value.Compare(got, []any{"bound", 42.0, 7.0}) != 0 {
		t.Errorf("got %v, %v", got, err)
	}
	if e.String() != "[name, (SUM(age) + 1), meta().seqno]" {
		t.Errorf("resolving changed the text: %s", e)
	}
}
