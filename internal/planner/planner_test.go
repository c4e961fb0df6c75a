package planner

import (
	"strings"
	"testing"

	"couchgo/internal/n1ql"
)

// fakeCatalog serves a fixed index set for keyspace "Profile".
type fakeCatalog struct {
	indexes []IndexInfo
}

func (f *fakeCatalog) KeyspaceExists(name string) bool { return name == "Profile" || name == "orders" }
func (f *fakeCatalog) Indexes(string) []IndexInfo      { return f.indexes }

func idx(name string, primary bool, keys ...string) IndexInfo {
	return IndexInfo{Name: name, IsPrimary: primary, SecCanonical: keys, Built: true}
}

func plan(t *testing.T, src string, cat Catalog) *SelectPlan {
	t.Helper()
	stmt, err := n1ql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	p, err := PlanSelect(stmt.(*n1ql.Select), cat)
	if err != nil {
		t.Fatalf("plan %q: %v", src, err)
	}
	return p
}

func planErr(t *testing.T, src string, cat Catalog) error {
	t.Helper()
	stmt, err := n1ql.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	_, err = PlanSelect(stmt.(*n1ql.Select), cat)
	if err == nil {
		t.Fatalf("plan %q should fail", src)
	}
	return err
}

func TestUseKeysBecomesKeyScan(t *testing.T) {
	cat := &fakeCatalog{}
	p := plan(t, `SELECT * FROM Profile USE KEYS "k1"`, cat)
	if _, ok := p.Scan.(*KeyScan); !ok {
		t.Fatalf("scan = %T", p.Scan)
	}
	if !p.Fetch {
		t.Error("keyscan needs fetch")
	}
}

func TestNoIndexErrors(t *testing.T) {
	cat := &fakeCatalog{}
	err := planErr(t, "SELECT * FROM Profile WHERE age > 1", cat)
	if !strings.Contains(err.Error(), "no index available") {
		t.Errorf("err = %v", err)
	}
	err = planErr(t, "SELECT * FROM nope", cat)
	if !strings.Contains(err.Error(), "keyspace not found") {
		t.Errorf("err = %v", err)
	}
}

func TestPrimaryScanFallback(t *testing.T) {
	cat := &fakeCatalog{indexes: []IndexInfo{
		{Name: "#primary", IsPrimary: true, SecCanonical: []string{"meta().id"}, Built: true},
	}}
	p := plan(t, "SELECT * FROM Profile WHERE age > 1", cat)
	ps, ok := p.Scan.(*PrimaryScan)
	if !ok {
		t.Fatalf("scan = %T", p.Scan)
	}
	if !ps.Span.IsFull() {
		t.Error("unrestricted primary scan should have a full span")
	}
	if !p.Fetch {
		t.Error("primary scan needs fetch")
	}
}

func TestWorkloadEPlansAsPrimaryRange(t *testing.T) {
	cat := &fakeCatalog{indexes: []IndexInfo{
		{Name: "#primary", IsPrimary: true, SecCanonical: []string{"meta().id"}, Built: true},
	}}
	p := plan(t, "SELECT meta().id AS id FROM Profile WHERE meta().id >= $1 LIMIT $2", cat)
	ps, ok := p.Scan.(*PrimaryScan)
	if !ok {
		t.Fatalf("scan = %T", p.Scan)
	}
	if len(ps.Span.Low) != 1 || ps.Span.Low[0].String() != "$1" || !ps.Span.LowIncl {
		t.Errorf("span: %+v", ps.Span.Describe())
	}
	// meta().id is always derivable: the scan covers the query.
	if p.Fetch {
		t.Error("meta().id-only query should not fetch")
	}
}

func TestEqualityPrefersMostSpecificIndex(t *testing.T) {
	cat := &fakeCatalog{indexes: []IndexInfo{
		idx("#primary", true, "meta().id"),
		idx("byAge", false, "self.age"),
		idx("byCityAge", false, "self.city", "self.age"),
	}}
	p := plan(t, `SELECT name FROM Profile WHERE city = "SF" AND age = 30`, cat)
	is, ok := p.Scan.(*IndexScan)
	if !ok {
		t.Fatalf("scan = %T", p.Scan)
	}
	if is.Index != "byCityAge" {
		t.Errorf("chose %s", is.Index)
	}
	if len(is.Span.Equal) != 2 {
		t.Errorf("span: %+v", is.Span.Describe())
	}
}

func TestRangeSpans(t *testing.T) {
	cat := &fakeCatalog{indexes: []IndexInfo{idx("byAge", false, "self.age")}}
	p := plan(t, "SELECT name FROM Profile WHERE age > 21 AND age <= 65", cat)
	is := p.Scan.(*IndexScan)
	sp := is.Span
	if sp.Low == nil || sp.Low[0].String() != "21" || sp.LowIncl {
		t.Errorf("low: %+v", sp.Describe())
	}
	if sp.High == nil || sp.High[0].String() != "65" || !sp.HighIncl {
		t.Errorf("high: %+v", sp.Describe())
	}
	// Reversed operand order sargs too.
	p = plan(t, "SELECT name FROM Profile WHERE 21 < age", cat)
	sp = p.Scan.(*IndexScan).Span
	if sp.Low == nil || sp.Low[0].String() != "21" {
		t.Errorf("flipped: %+v", sp.Describe())
	}
	// BETWEEN.
	p = plan(t, "SELECT name FROM Profile WHERE age BETWEEN 20 AND 30", cat)
	sp = p.Scan.(*IndexScan).Span
	if sp.Low[0].String() != "20" || !sp.LowIncl || sp.High[0].String() != "30" || !sp.HighIncl {
		t.Errorf("between: %+v", sp.Describe())
	}
}

func TestEqualityPrefixPlusRange(t *testing.T) {
	cat := &fakeCatalog{indexes: []IndexInfo{idx("byCityAge", false, "self.city", "self.age")}}
	p := plan(t, `SELECT name FROM Profile WHERE city = "SF" AND age > 30`, cat)
	sp := p.Scan.(*IndexScan).Span
	if len(sp.Low) != 2 || sp.Low[0].String() != `"SF"` || sp.Low[1].String() != "30" || sp.LowIncl {
		t.Errorf("low: %+v", sp.Describe())
	}
	if len(sp.High) != 1 || !sp.HighIncl {
		t.Errorf("high: %+v", sp.Describe())
	}
}

func TestPartialIndexRequiresPredicate(t *testing.T) {
	cat := &fakeCatalog{indexes: []IndexInfo{
		idx("#primary", true, "meta().id"),
		{Name: "over21", SecCanonical: []string{"self.age"}, WhereCanonical: "(self.age > 21)", Built: true},
	}}
	// Query that includes the index predicate verbatim can use it.
	p := plan(t, "SELECT name FROM Profile WHERE age > 21", cat)
	if is, ok := p.Scan.(*IndexScan); !ok || is.Index != "over21" {
		t.Errorf("scan = %#v", p.Scan)
	}
	// Query without it must not.
	p = plan(t, "SELECT name FROM Profile WHERE age > 10", cat)
	if _, ok := p.Scan.(*PrimaryScan); !ok {
		t.Errorf("partial index must not serve a wider predicate; scan = %T", p.Scan)
	}
}

func TestUnbuiltIndexSkipped(t *testing.T) {
	cat := &fakeCatalog{indexes: []IndexInfo{
		idx("#primary", true, "meta().id"),
		{Name: "deferred", SecCanonical: []string{"self.age"}, Built: false},
	}}
	p := plan(t, "SELECT name FROM Profile WHERE age = 1", cat)
	if _, ok := p.Scan.(*PrimaryScan); !ok {
		t.Errorf("deferred index used: %T", p.Scan)
	}
}

func TestCoveringIndex(t *testing.T) {
	cat := &fakeCatalog{indexes: []IndexInfo{
		idx("#primary", true, "meta().id"),
		idx("emailAge", false, "self.email", "self.age"),
	}}
	// Query touching only indexed fields: covered, no fetch.
	p := plan(t, `SELECT email, age FROM Profile WHERE email > "a"`, cat)
	is := p.Scan.(*IndexScan)
	if !is.Covering || p.Fetch {
		t.Fatalf("should cover: %+v fetch=%v", is, p.Fetch)
	}
	// Rewritten projection reads cover bindings.
	if p.Projection[0].Expr.String() != "`$cover:0`" {
		t.Errorf("projection rewrite: %s", p.Projection[0].Expr)
	}
	if p.Where.String() != "(`$cover:0` > \"a\")" {
		t.Errorf("where rewrite: %s", p.Where)
	}
	// One slot per index key; the document ID gets one only when read.
	if len(p.Cover) != 2 || p.CoverID != -1 || p.Scope.Len() != 4 {
		t.Errorf("cover slots: %v id %d of %d", p.Cover, p.CoverID, p.Scope.Len())
	}
	// meta().id is free.
	p = plan(t, `SELECT meta().id, email FROM Profile WHERE email = "x"`, cat)
	if p.Fetch || p.CoverID != 4 {
		t.Errorf("meta().id + indexed field should cover: fetch=%v id slot %d", p.Fetch, p.CoverID)
	}
	// Touching a non-indexed field forces the fetch.
	p = plan(t, `SELECT name FROM Profile WHERE email = "x"`, cat)
	if !p.Fetch || p.Scan.(*IndexScan).Covering {
		t.Error("non-indexed projection must fetch")
	}
	// SELECT * needs the document.
	p = plan(t, `SELECT * FROM Profile WHERE email = "x"`, cat)
	if !p.Fetch {
		t.Error("SELECT * must fetch")
	}
	// So does a comprehension, and a path into a key: inside one, `age` is
	// an element of email, not the indexed field of that name.
	for _, src := range []string{
		`SELECT meta().id FROM Profile WHERE email >= [] AND ANY age IN email SATISFIES age = "a" END`,
		`SELECT ARRAY age FOR age IN email END FROM Profile WHERE email >= []`,
		`SELECT email.domain FROM Profile WHERE email > "a"`,
		`SELECT email[0] FROM Profile WHERE email > "a"`,
	} {
		p = plan(t, src, cat)
		if !p.Fetch || strings.Contains(p.Where.String()+p.Projection[0].Expr.String(), "$cover") {
			t.Errorf("%s: must fetch and read the document: fetch=%v where %s", src, p.Fetch, p.Where)
		}
	}
}

func TestCoveringFullIndexScan(t *testing.T) {
	// No sargable predicate, but the query only needs indexed fields: a
	// covering full-index scan beats the primary scan.
	cat := &fakeCatalog{indexes: []IndexInfo{
		idx("#primary", true, "meta().id"),
		idx("byEmail", false, "self.email"),
	}}
	p := plan(t, "SELECT email FROM Profile", cat)
	is, ok := p.Scan.(*IndexScan)
	if !ok || !is.Covering || !is.Span.IsFull() {
		t.Fatalf("scan = %#v", p.Scan)
	}
}

func TestArrayIndexMatchesAnyPredicate(t *testing.T) {
	cat := &fakeCatalog{indexes: []IndexInfo{
		idx("#primary", true, "meta().id"),
		{Name: "byCat", SecCanonical: []string{"ARRAY c FOR c IN self.categories END"}, IsArray: true, Built: true},
	}}
	p := plan(t, `SELECT name FROM Profile WHERE ANY c IN categories SATISFIES c = "db" END`, cat)
	is, ok := p.Scan.(*IndexScan)
	if !ok || is.Index != "byCat" {
		t.Fatalf("scan = %#v", p.Scan)
	}
	if len(is.Span.Equal) != 1 || is.Span.Equal[0].String() != `"db"` {
		t.Errorf("span: %+v", is.Span.Describe())
	}
	// Different bound variable name still matches.
	p = plan(t, `SELECT name FROM Profile WHERE ANY zz IN categories SATISFIES "db" = zz END`, cat)
	if is, ok := p.Scan.(*IndexScan); !ok || is.Index != "byCat" {
		t.Errorf("alpha-renamed ANY: %#v", p.Scan)
	}
	// EVERY does not match an array index.
	p = plan(t, `SELECT name FROM Profile WHERE EVERY c IN categories SATISFIES c = "db" END`, cat)
	if _, ok := p.Scan.(*PrimaryScan); !ok {
		t.Errorf("EVERY should not use the array index: %T", p.Scan)
	}
}

func TestOrderFromIndex(t *testing.T) {
	cat := &fakeCatalog{indexes: []IndexInfo{
		idx("#primary", true, "meta().id"),
		idx("byTitle", false, "self.title"),
	}}
	p := plan(t, `SELECT title FROM Profile WHERE title > "a" ORDER BY title`, cat)
	if !p.OrderFromIndex {
		t.Error("index order should eliminate the sort")
	}
	p = plan(t, `SELECT title FROM Profile WHERE title > "a" ORDER BY title DESC`, cat)
	if p.OrderFromIndex {
		t.Error("descending order must not claim index order")
	}
}

func TestAggregateCollection(t *testing.T) {
	cat := &fakeCatalog{indexes: []IndexInfo{idx("#primary", true, "meta().id")}}
	p := plan(t, "SELECT city, COUNT(*) AS n, SUM(age) FROM Profile GROUP BY city HAVING COUNT(*) > 1", cat)
	if len(p.Aggregates) != 2 {
		t.Fatalf("aggregates: %d", len(p.Aggregates))
	}
	// Aggregates in WHERE are rejected.
	stmt, _ := n1ql.Parse("SELECT 1 FROM Profile WHERE COUNT(*) > 1")
	if _, err := PlanSelect(stmt.(*n1ql.Select), cat); err == nil {
		t.Error("aggregate in WHERE should fail planning")
	}
}

func TestExplainDescribe(t *testing.T) {
	cat := &fakeCatalog{indexes: []IndexInfo{
		idx("#primary", true, "meta().id"),
		idx("byTitle", false, "self.title"),
	}}
	p := plan(t, `SELECT title FROM Profile WHERE title > "a" ORDER BY title LIMIT 5 OFFSET 1`, cat)
	desc := p.Describe()
	ops := desc["operators"].([]map[string]any)
	var names []string
	for _, op := range ops {
		names = append(names, op["#operator"].(string))
	}
	joined := strings.Join(names, ",")
	// Figure 11's pipeline: scan → (no fetch: covered) → filter →
	// project → offset → limit → final project. Sort is absent (index
	// order).
	if !strings.Contains(joined, "IndexScan") || strings.Contains(joined, "Sort") {
		t.Errorf("operators: %v", names)
	}
	if names[len(names)-1] != "FinalProject" {
		t.Errorf("last op: %v", names)
	}
	// With a join, the Join operator appears.
	p = plan(t, `SELECT * FROM Profile USE KEYS "k" INNER JOIN orders o ON KEYS Profile.oid`, &fakeCatalog{})
	desc = p.Describe()
	found := false
	for _, op := range desc["operators"].([]map[string]any) {
		if op["#operator"] == "Join" {
			found = true
		}
	}
	if !found {
		t.Error("join operator missing from describe")
	}
}

func TestFromlessSelect(t *testing.T) {
	p := plan(t, "SELECT 1 + 1 AS two", &fakeCatalog{})
	if p.Scan != nil || p.Fetch {
		t.Error("fromless select needs no scan")
	}
}

func TestJoinsDisableCovering(t *testing.T) {
	cat := &fakeCatalog{indexes: []IndexInfo{
		idx("#primary", true, "meta().id"),
		idx("byEmail", false, "self.email"),
	}}
	p := plan(t, `SELECT p.email FROM Profile p INNER JOIN orders o ON KEYS p.oid WHERE p.email = "x"`, cat)
	if !p.Fetch {
		t.Error("joins require fetched documents")
	}
}
