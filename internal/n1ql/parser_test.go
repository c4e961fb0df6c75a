package n1ql

import (
	"fmt"
	"strings"
	"testing"
)

func parseSelect(t *testing.T, src string) *Select {
	t.Helper()
	stmt, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	sel, ok := stmt.(*Select)
	if !ok {
		t.Fatalf("Parse(%q) = %T, want *Select", src, stmt)
	}
	return sel
}

func TestParseSimpleSelect(t *testing.T) {
	sel := parseSelect(t, "SELECT name, email FROM profiles WHERE age > 21")
	if sel.Keyspace != "profiles" || sel.Alias != "profiles" {
		t.Errorf("keyspace %q alias %q", sel.Keyspace, sel.Alias)
	}
	if len(sel.Projection) != 2 {
		t.Fatalf("projection %d terms", len(sel.Projection))
	}
	if sel.Projection[0].Expr.String() != "name" {
		t.Errorf("proj 0 = %s", sel.Projection[0].Expr)
	}
	if sel.Where == nil || sel.Where.String() != "(age > 21)" {
		t.Errorf("where = %v", sel.Where)
	}
}

func TestParseSelectStar(t *testing.T) {
	sel := parseSelect(t, "SELECT * FROM b")
	if !sel.Projection[0].Star || sel.Projection[0].Expr != nil {
		t.Errorf("star projection: %+v", sel.Projection[0])
	}
	sel = parseSelect(t, "SELECT p.* FROM b AS p")
	if !sel.Projection[0].Star || sel.Projection[0].Expr.String() != "p" {
		t.Errorf("alias star: %+v", sel.Projection[0])
	}
	if sel.Alias != "p" {
		t.Errorf("alias = %q", sel.Alias)
	}
}

func TestParseUseKeys(t *testing.T) {
	// From the paper §3.2.3.
	sel := parseSelect(t, `SELECT * FROM profiles USE KEYS "acme-uuid-1234-5678"`)
	if sel.UseKeys == nil {
		t.Fatal("no USE KEYS")
	}
	sel = parseSelect(t, `SELECT * FROM profiles USE KEYS ["acme-uuid-1234-5678", "roadster-uuid-4321-8765"]`)
	if _, ok := sel.UseKeys.(*ArrayConstruct); !ok {
		t.Errorf("USE KEYS = %T", sel.UseKeys)
	}
}

func TestParsePaperNestExample(t *testing.T) {
	// The NEST example from paper §3.2.3 (modulo its typo of a stray
	// alias): orders nested into the profile document.
	src := `
	  SELECT PO.personal_details, orders
	  FROM profiles_orders PO
	  USE KEYS 'borkar123'
	  NEST profiles_orders AS orders
	  ON KEYS ARRAY s.order_id FOR s IN PO.shipped_order_history END`
	sel := parseSelect(t, src)
	if sel.Alias != "PO" {
		t.Errorf("alias = %q", sel.Alias)
	}
	if len(sel.Joins) != 1 || !sel.Joins[0].Nest {
		t.Fatalf("joins: %+v", sel.Joins)
	}
	j := sel.Joins[0]
	if j.Alias != "orders" || j.Keyspace != "profiles_orders" {
		t.Errorf("nest term: %+v", j)
	}
	if _, ok := j.OnKeys.(*ArrayComprehension); !ok {
		t.Errorf("ON KEYS = %T", j.OnKeys)
	}
}

func TestParsePaperUnnestExample(t *testing.T) {
	// §3.2.3: SELECT DISTINCT (categories) FROM product UNNEST
	// product.categories AS categories.
	sel := parseSelect(t, "SELECT DISTINCT (categories) FROM product UNNEST product.categories AS categories")
	if !sel.Distinct {
		t.Error("DISTINCT not set")
	}
	if len(sel.Unnests) != 1 || sel.Unnests[0].Alias != "categories" {
		t.Fatalf("unnests: %+v", sel.Unnests)
	}
	if sel.Unnests[0].Expr.String() != "product.categories" {
		t.Errorf("unnest expr = %s", sel.Unnests[0].Expr)
	}
}

func TestParsePaperJoinExample(t *testing.T) {
	// §4.5.3: FROM ORDERS O INNER JOIN CUSTOMER C ON KEYS O.O_C_ID
	sel := parseSelect(t, "SELECT * FROM ORDERS O INNER JOIN CUSTOMER C ON KEYS O.O_C_ID")
	if len(sel.Joins) != 1 {
		t.Fatal("no join")
	}
	j := sel.Joins[0]
	if j.Kind != JoinInner || j.Nest || j.Keyspace != "CUSTOMER" || j.Alias != "C" {
		t.Errorf("join: %+v", j)
	}
	sel = parseSelect(t, "SELECT * FROM a LEFT OUTER JOIN b ON KEYS a.bid")
	if sel.Joins[0].Kind != JoinLeftOuter {
		t.Error("left outer join kind")
	}
}

func TestParseWorkloadEQuery(t *testing.T) {
	// The appendix's YCSB workload E query.
	sel := parseSelect(t, "SELECT meta().id AS id FROM `bucket` WHERE meta().id >= $1 LIMIT $2")
	if sel.Projection[0].Alias != "id" {
		t.Errorf("alias = %q", sel.Projection[0].Alias)
	}
	if _, ok := sel.Projection[0].Expr.(*Field); !ok {
		t.Errorf("proj expr = %T", sel.Projection[0].Expr)
	}
	if sel.Where.String() != "(meta().id >= $1)" {
		t.Errorf("where = %s", sel.Where)
	}
	if sel.Limit.String() != "$2" {
		t.Errorf("limit = %v", sel.Limit)
	}
}

func TestParseOrderLimitOffset(t *testing.T) {
	sel := parseSelect(t, "SELECT title FROM catalog ORDER BY title DESC, year LIMIT 10 OFFSET 5")
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Errorf("order by: %+v", sel.OrderBy)
	}
	if sel.Limit.String() != "10" || sel.Offset.String() != "5" {
		t.Errorf("limit/offset: %v %v", sel.Limit, sel.Offset)
	}
}

func TestParseGroupByHaving(t *testing.T) {
	sel := parseSelect(t, "SELECT city, COUNT(*) AS n FROM p GROUP BY city HAVING COUNT(*) > 2")
	if len(sel.GroupBy) != 1 || sel.GroupBy[0].String() != "city" {
		t.Errorf("group by: %+v", sel.GroupBy)
	}
	if sel.Having == nil {
		t.Error("no having")
	}
	fc := sel.Projection[1].Expr.(*FuncCall)
	if !fc.Star || fc.Name != "COUNT" {
		t.Errorf("count(*): %+v", fc)
	}
}

func TestParseInsertUpsert(t *testing.T) {
	stmt, err := Parse(`INSERT INTO b (KEY, VALUE) VALUES ("k1", {"a": 1}), ("k2", {"a": 2}) RETURNING meta().id`)
	if err != nil {
		t.Fatal(err)
	}
	ins := stmt.(*Insert)
	if ins.Upsert || len(ins.KeyExprs) != 2 || len(ins.Returning) != 1 {
		t.Errorf("insert: %+v", ins)
	}
	stmt, err = Parse(`UPSERT INTO b (KEY, VALUE) VALUES ($k, $v)`)
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.(*Insert).Upsert {
		t.Error("upsert flag")
	}
}

func TestParseUpdate(t *testing.T) {
	stmt, err := Parse(`UPDATE b USE KEYS "k" SET a.x = 1, y = "z" UNSET old WHERE c = 2 LIMIT 3 RETURNING *`)
	if err != nil {
		t.Fatal(err)
	}
	u := stmt.(*Update)
	if len(u.Sets) != 2 || len(u.Unsets) != 1 || u.Where == nil || u.Limit == nil {
		t.Errorf("update: %+v", u)
	}
	if u.Sets[0].Path.String() != "a.x" {
		t.Errorf("set path: %s", u.Sets[0].Path)
	}
}

func TestParseDelete(t *testing.T) {
	stmt, err := Parse(`DELETE FROM b WHERE type = "stale" LIMIT 100`)
	if err != nil {
		t.Fatal(err)
	}
	d := stmt.(*Delete)
	if d.Keyspace != "b" || d.Where == nil || d.Limit == nil {
		t.Errorf("delete: %+v", d)
	}
}

func TestParseCreateIndexVariants(t *testing.T) {
	// All four §3.3 examples.
	stmt, err := Parse("CREATE INDEX email on `Profile` (email) USING VIEW")
	if err != nil {
		t.Fatal(err)
	}
	ci := stmt.(*CreateIndex)
	if ci.Primary || ci.Name != "email" || ci.Keyspace != "Profile" || ci.Using != UsingView {
		t.Errorf("view index: %+v", ci)
	}

	stmt, _ = Parse("CREATE INDEX email on `Profile` (email) USING GSI")
	if stmt.(*CreateIndex).Using != UsingGSI {
		t.Error("gsi index")
	}

	stmt, err = Parse("CREATE PRIMARY INDEX profile_pk_view ON Profile USING VIEW")
	if err != nil {
		t.Fatal(err)
	}
	ci = stmt.(*CreateIndex)
	if !ci.Primary || ci.Name != "profile_pk_view" {
		t.Errorf("primary: %+v", ci)
	}

	stmt, err = Parse(`CREATE PRIMARY INDEX ON Profile USING GSI WITH {"defer_build": true}`)
	if err != nil {
		t.Fatal(err)
	}
	ci = stmt.(*CreateIndex)
	if !ci.Primary || ci.Name != "#primary" || ci.With["defer_build"] != true {
		t.Errorf("primary with: %+v", ci)
	}

	// §3.3.4 selective index.
	stmt, err = Parse("CREATE INDEX over21 ON `Profile`(age) WHERE age > 21 USING GSI")
	if err != nil {
		t.Fatal(err)
	}
	ci = stmt.(*CreateIndex)
	if ci.Where == nil || ci.Where.String() != "(age > 21)" {
		t.Errorf("partial index where: %v", ci.Where)
	}
}

func TestParseDropIndex(t *testing.T) {
	stmt, err := Parse("DROP INDEX Profile.email")
	if err != nil {
		t.Fatal(err)
	}
	di := stmt.(*DropIndex)
	if di.Keyspace != "Profile" || di.Name != "email" {
		t.Errorf("drop: %+v", di)
	}
	stmt, err = Parse("DROP PRIMARY INDEX ON Profile")
	if err != nil {
		t.Fatal(err)
	}
	if stmt.(*DropIndex).Name != "#primary" {
		t.Error("drop primary")
	}
}

func TestParseExplain(t *testing.T) {
	// The paper's §4.5.3 example.
	stmt, err := Parse("EXPLAIN SELECT title, genre, runtime FROM catalog.details ORDER BY title")
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := stmt.(*Explain)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	sel := ex.Target.(*Select)
	if sel.Keyspace != "catalog.details" || sel.Alias != "details" {
		t.Errorf("dotted keyspace: %q alias %q", sel.Keyspace, sel.Alias)
	}
}

func TestParseExpressions(t *testing.T) {
	// Expression String() round-trips through the parser.
	exprs := []string{
		"(a AND (b OR (NOT c)))",
		"((a + (b * c)) - 2)",
		"(name LIKE \"D%\")",
		"(x IN [1, 2, 3])",
		"(x BETWEEN 1 AND 10)",
		"(x NOT BETWEEN 1 AND 10)",
		"(x IS NULL)",
		"(x IS NOT MISSING)",
		"(x IS VALUED)",
		"ANY c IN categories SATISFIES (c = \"x\") END",
		"EVERY c IN categories SATISFIES (c > 0) END",
		"ARRAY s.order_id FOR s IN history WHEN (s.total > 10) END",
		"CASE WHEN (a > 1) THEN \"big\" ELSE \"small\" END",
		"CASE x WHEN 1 THEN \"one\" END",
		"meta().id",
		"meta(p).cas",
		"UPPER(name)",
		"COUNT(DISTINCT city)",
		"doc.items[0].price",
		"doc.items[(i + 1)]",
		"{\"k\": v, \"n\": 2}",
		"(-x)",
		"(NOT (x LIKE \"a%\"))",
	}
	for _, src := range exprs {
		e, err := ParseExpr(src)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", src, err)
			continue
		}
		e2, err := ParseExpr(e.String())
		if err != nil {
			t.Errorf("re-parse of %q (from %q): %v", e.String(), src, err)
			continue
		}
		if e.String() != e2.String() {
			t.Errorf("round trip: %q -> %q -> %q", src, e.String(), e2.String())
		}
	}
}

func TestParsePrecedence(t *testing.T) {
	cases := map[string]string{
		"a OR b AND c":   "(a OR (b AND c))",
		"a + b * c":      "(a + (b * c))",
		"a * b + c":      "((a * b) + c)",
		"NOT a = b":      "(NOT (a = b))",
		"a = b OR c = d": "((a = b) OR (c = d))",
		"a - b - c":      "((a - b) - c)",
		"a || b || c":    "((a || b) || c)",
		"-a + b":         "((-a) + b)",
		"a < b = TRUE":   "((a < b) = true)",
	}
	for src, want := range cases {
		e, err := ParseExpr(src)
		if err != nil {
			t.Errorf("ParseExpr(%q): %v", src, err)
			continue
		}
		if e.String() != want {
			t.Errorf("%q parsed as %s, want %s", src, e.String(), want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM b",
		"SELECT * FROM",
		"SELECT * FROM b WHERE",
		"SELECT * FROM b USE KEY 'x'",
		"INSERT INTO b VALUES ('k', 1)",
		"CREATE INDEX ON b(x)",
		"DROP INDEX b",
		"SELECT * FROM b ORDER title",
		"SELECT a b c FROM b",
		"x BETWEEN 1",
		"CASE END",
		"ANY x IN a END",
		"SELECT * FROM b WHERE x IS BOGUS",
		"SELECT * FROM b LIMIT",
		"'unterminated",
		"SELECT * FROM b WHERE x = @",
		"SELECT {",
		"INSERT INTO b (KEY, VALUE) VALUES ({",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
	if _, err := ParseExpr("{"); err == nil || !strings.Contains(err.Error(), "position 1: expected field name in object literal") {
		t.Errorf(`ParseExpr("{") = %v, want the field-name error at the end`, err)
	}
}

// TestParseRecoversOnlyParseErrors: a syntax error is an error, and any
// other panic inside the parser, a bug, goes on up.
func TestParseRecoversOnlyParseErrors(t *testing.T) {
	defer func() {
		if r := recover(); r != "a parser bug" {
			t.Errorf("recovered %v, want the parser bug's panic", r)
		}
	}()
	if _, err := parse("x", func(p *parser) Expr { p.fail("syntax"); return nil }); err == nil {
		t.Error("a parseError came back as no error")
	}
	parse("x", func(*parser) Expr { panic("a parser bug") })
	t.Error("the parser bug's panic was swallowed")
}

// paperStatements are the paper's N1QL statements (§3.2.3, §3.3, §4.5.3,
// the appendix's workload E), FuzzParse's seeds.
var paperStatements = []string{
	`SELECT * FROM profiles USE KEYS ["acme-uuid-1234-5678", "roadster-uuid-4321-8765"]`,
	`SELECT PO.personal_details, orders FROM profiles_orders PO USE KEYS 'borkar123'
	  NEST profiles_orders AS orders ON KEYS ARRAY s.order_id FOR s IN PO.shipped_order_history END`,
	"SELECT DISTINCT (categories) FROM product UNNEST product.categories AS categories",
	"SELECT * FROM ORDERS O INNER JOIN CUSTOMER C ON KEYS O.O_C_ID",
	"SELECT meta().id AS id FROM `bucket` WHERE meta().id >= $1 LIMIT $2",
	"CREATE INDEX email on `Profile` (email) USING VIEW",
	"CREATE PRIMARY INDEX profile_pk_view ON Profile USING VIEW",
	`CREATE PRIMARY INDEX ON Profile USING GSI WITH {"defer_build": true}`,
	"CREATE INDEX over21 ON `Profile`(age) WHERE age > 21 USING GSI",
	"EXPLAIN SELECT title, genre, runtime FROM catalog.details ORDER BY title",
}

// FuzzParse: Parse and ParseExpr return on any input without panicking,
// and each WHERE and projection expression of an accepted statement
// prints and re-parses to the same text, which is what the planner
// matches indexes by.
func FuzzParse(f *testing.F) {
	// The rest print what the printer once got wrong: a string JSON
	// escapes (\u003c read back as "u003c"), a name that starts with a
	// digit, a function name upper-casing turns into U+FFFD, a quote in
	// a field name, a keyword as a range variable; and what the lexer
	// once misread: JSON escapes, and a name outside ASCII.
	for _, src := range append(paperStatements, `SELECT "<" FROM b`, "SELECT `1a` FROM b", "SELECT \xff()",
		`SELECT {'a"b': 1} FROM b`, "SELECT ARRAY 1 FOR `end` IN a END FROM b", `SELECT '\b' FROM b`,
		`SELECT '\u00e9' FROM b`, `SELECT '\ud83d\ude00' FROM b`, "SELECT café FROM b") {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		ParseExpr(src)
		stmt, _ := Parse(src) // nil on an error: nothing to print
		for ex, ok := stmt.(*Explain); ok; ex, ok = stmt.(*Explain) {
			stmt = ex.Target
		}
		var exprs []Expr
		switch s := stmt.(type) {
		case *Select:
			exprs = append(exprs, s.Where)
			for _, rt := range s.Projection {
				exprs = append(exprs, rt.Expr)
			}
		case *Update:
			exprs = append(exprs, s.Where)
		case *Delete:
			exprs = append(exprs, s.Where)
		case *CreateIndex:
			exprs = append(exprs, s.Where)
		}
		for _, e := range exprs {
			if e == nil {
				continue
			}
			back, err := ParseExpr(e.String())
			if err != nil || back.String() != e.String() {
				t.Errorf("%q: %s re-parses to %v (%v)", src, e, back, err)
			}
		}
	})
}

func TestParseComments(t *testing.T) {
	sel := parseSelect(t, `SELECT a -- a line comment
		FROM b /* block
		comment */ WHERE c = 1`)
	if sel.Keyspace != "b" || sel.Where == nil {
		t.Error("comments broke parsing")
	}
}

func TestParseBackticksAndEscapes(t *testing.T) {
	sel := parseSelect(t, "SELECT `select`, `weird name` FROM `bucket-1`")
	if sel.Keyspace != "bucket-1" {
		t.Errorf("keyspace = %q", sel.Keyspace)
	}
	if sel.Projection[0].Expr.String() != "`select`" {
		t.Errorf("keyword ident: %s", sel.Projection[0].Expr)
	}
	e, err := ParseExpr(`'it''s'`)
	if err != nil {
		t.Fatal(err)
	}
	if e.(*Literal).Val != "it's" {
		t.Errorf("escaped quote: %v", e.(*Literal).Val)
	}
}

// TestParseStringEscapes: a string literal decodes the escapes JSON
// defines, a surrogate pair to one rune and a lone surrogate to U+FFFD,
// while any other escaped byte still stands for itself; a malformed \u
// is an error at its position.
func TestParseStringEscapes(t *testing.T) {
	for src, want := range map[string]string{
		`'\b\f\n\r\t'`:         "\b\f\n\r\t",
		`"\/\\\"\b"`:           "/\\\"\b",
		"'\\'\\`\\q\\f'":       "'`q\f",
		`'\u00e9t\u00E9'`:      "été",
		`'\ud83d\ude00'`:       "\U0001F600",
		`'\ud83d'`:             "\uFFFD",
		`'\ude00\u0041'`:       "\uFFFDA",
		`'\ud83d\ud83d\ude00'`: "\uFFFD\U0001F600",
	} {
		e, err := ParseExpr(src)
		if err != nil {
			t.Errorf("ParseExpr(%s): %v", src, err)
		} else if got := e.(*Literal).Val; got != want {
			t.Errorf("ParseExpr(%s) = %+q, want %+q", src, got, want)
		}
	}
	for src, pos := range map[string]int{`'\u12'`: 1, `'\uzz00'`: 1, `'\u+123'`: 1, `'\ud83d\u12'`: 7} {
		want := fmt.Sprintf("malformed escape at position %d", pos)
		if _, err := ParseExpr(src); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseExpr(%s) = %v, want %q", src, err, want)
		}
	}
}

// TestParseUnicodeIdentifiers: a name outside ASCII lexes rune by rune,
// bare, and prints bare and back.
func TestParseUnicodeIdentifiers(t *testing.T) {
	sel := parseSelect(t, "SELECT café, naïve.größe FROM b")
	for i, want := range []string{"café", "naïve.größe"} {
		got := sel.Projection[i].Expr.String()
		if back, err := ParseExpr(got); got != want || err != nil || back.String() != want {
			t.Errorf("term %d prints %s, re-parsed %v (%v); want %s", i, got, back, err, want)
		}
	}
}

func TestParseStatementTrailingSemicolon(t *testing.T) {
	if _, err := Parse("SELECT 1;"); err != nil {
		t.Errorf("trailing semicolon: %v", err)
	}
	if _, err := Parse("SELECT 1; SELECT 2"); err == nil {
		t.Error("two statements should fail")
	}
}

func TestParseKeywordFieldNames(t *testing.T) {
	e, err := ParseExpr("doc.end")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(e.String(), "end") {
		t.Errorf("keyword field: %s", e)
	}
}

func TestParseGeneralJoin(t *testing.T) {
	// The general ON form parses (the analytics service executes it;
	// the operational query service rejects it per §3.2.4).
	sel := parseSelect(t, "SELECT * FROM a JOIN b ON a.x = b.y AND b.type = 'z'")
	if len(sel.Joins) != 1 {
		t.Fatal("no join")
	}
	j := sel.Joins[0]
	if j.OnKeys != nil || j.OnCond == nil {
		t.Fatalf("join: %+v", j)
	}
	if j.OnCond.String() != `((a.x = b.y) AND (b.type = "z"))` {
		t.Errorf("cond: %s", j.OnCond)
	}
	// ON KEYS still parses as a key join.
	sel = parseSelect(t, "SELECT * FROM a JOIN b ON KEYS a.bid")
	if sel.Joins[0].OnKeys == nil || sel.Joins[0].OnCond != nil {
		t.Errorf("key join: %+v", sel.Joins[0])
	}
	// General NEST.
	sel = parseSelect(t, "SELECT * FROM a NEST b ON b.parent = a.id")
	if !sel.Joins[0].Nest || sel.Joins[0].OnCond == nil {
		t.Errorf("general nest: %+v", sel.Joins[0])
	}
}
