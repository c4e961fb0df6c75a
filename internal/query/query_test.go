package query

import (
	"context"
	"errors"
	"strings"
	"testing"

	"couchgo/internal/executor"
	"couchgo/internal/gsi"
	"couchgo/internal/n1ql"
	"couchgo/internal/value"
)

// fixture: a profile store plus orders, as in the paper's examples.
func fixture(t *testing.T) (*Engine, *memStore) {
	t.Helper()
	s := newMemStore("Profile", "orders", "product", "profiles_orders")
	e := NewEngine(s)
	mustExec(t, e, "CREATE PRIMARY INDEX ON Profile")
	mustExec(t, e, "CREATE PRIMARY INDEX ON orders")
	mustExec(t, e, "CREATE PRIMARY INDEX ON product")
	mustExec(t, e, "CREATE PRIMARY INDEX ON profiles_orders")

	s.put("Profile", "borkar123", `{"name": "Dipti", "email": "dipti@couchbase.com", "age": 30, "city": "SF", "categories": ["db", "nosql"]}`)
	s.put("Profile", "mayuram456", `{"name": "Ravi", "email": "ravi@couchbase.com", "age": 45, "city": "SF", "categories": ["cloud"]}`)
	s.put("Profile", "sangudi789", `{"name": "Gerald", "email": "gerald@couchbase.com", "age": 40, "city": "NY", "categories": ["db", "query"]}`)
	s.put("Profile", "carey000", `{"name": "Mike", "email": "mike@couchbase.com", "age": 60, "city": "Irvine"}`)

	s.put("orders", "o1", `{"user": "borkar123", "total": 100, "items": [{"sku": "a", "qty": 2}, {"sku": "b", "qty": 1}]}`)
	s.put("orders", "o2", `{"user": "borkar123", "total": 50, "items": [{"sku": "c", "qty": 5}]}`)
	s.put("orders", "o3", `{"user": "mayuram456", "total": 75, "items": []}`)

	s.put("profiles_orders", "po1", `{"doc_type": "user_profile", "personal_details": {"name": "D"}, "shipped_order_history": [{"order_id": "po-ord-1"}, {"order_id": "po-ord-2"}]}`)
	s.put("profiles_orders", "po-ord-1", `{"doc_type": "order", "total": 10}`)
	s.put("profiles_orders", "po-ord-2", `{"doc_type": "order", "total": 20}`)

	s.put("product", "p1", `{"name": "widget", "categories": ["tools", "home"]}`)
	s.put("product", "p2", `{"name": "gadget", "categories": ["tools", "tech"]}`)
	return e, s
}

func mustExec(t *testing.T, e *Engine, stmt string) *Result {
	t.Helper()
	res, err := e.Execute(stmt, executor.Options{})
	if err != nil {
		t.Fatalf("Execute(%q): %v", stmt, err)
	}
	return res
}

func execParams(t *testing.T, e *Engine, stmt string, params map[string]any) *Result {
	t.Helper()
	res, err := e.Execute(stmt, executor.Options{Params: params})
	if err != nil {
		t.Fatalf("Execute(%q): %v", stmt, err)
	}
	return res
}

func field(row any, name string) any { return value.Field(row, name) }

func TestUseKeysLookup(t *testing.T) {
	e, _ := fixture(t)
	res := mustExec(t, e, `SELECT name, email FROM Profile USE KEYS "borkar123"`)
	if len(res.Rows) != 1 {
		t.Fatalf("rows: %+v", res.Rows)
	}
	if field(res.Rows[0], "name") != "Dipti" || field(res.Rows[0], "email") != "dipti@couchbase.com" {
		t.Errorf("row: %+v", res.Rows[0])
	}
	// Multi-key.
	res = mustExec(t, e, `SELECT name FROM Profile USE KEYS ["borkar123", "carey000", "ghost"]`)
	if len(res.Rows) != 2 {
		t.Errorf("multi-key rows: %+v", res.Rows)
	}
}

func TestSelectStarWrapsAlias(t *testing.T) {
	e, _ := fixture(t)
	res := mustExec(t, e, `SELECT * FROM Profile USE KEYS "carey000"`)
	doc := field(res.Rows[0], "Profile")
	if field(doc, "name") != "Mike" {
		t.Errorf("star row: %+v", res.Rows[0])
	}
	// alias.* splices fields.
	res = mustExec(t, e, `SELECT p.* FROM Profile p USE KEYS "carey000"`)
	if field(res.Rows[0], "name") != "Mike" {
		t.Errorf("alias star: %+v", res.Rows[0])
	}
}

func TestWhereWithIndexAndFilter(t *testing.T) {
	e, _ := fixture(t)
	mustExec(t, e, "CREATE INDEX byAge ON Profile(age)")
	res := mustExec(t, e, `SELECT name FROM Profile WHERE age > 35 AND city = "SF" ORDER BY name`)
	if len(res.Rows) != 1 || field(res.Rows[0], "name") != "Ravi" {
		t.Fatalf("rows: %+v", res.Rows)
	}
}

func TestOrderLimitOffset(t *testing.T) {
	e, _ := fixture(t)
	res := mustExec(t, e, "SELECT name FROM Profile ORDER BY age DESC LIMIT 2 OFFSET 1")
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %+v", res.Rows)
	}
	if field(res.Rows[0], "name") != "Ravi" || field(res.Rows[1], "name") != "Gerald" {
		t.Errorf("ordered rows: %+v", res.Rows)
	}
}

func TestParameters(t *testing.T) {
	e, _ := fixture(t)
	res := execParams(t, e, "SELECT name FROM Profile WHERE age >= $min ORDER BY age", map[string]any{"min": 40.0})
	if len(res.Rows) != 3 || field(res.Rows[0], "name") != "Gerald" {
		t.Fatalf("rows: %+v", res.Rows)
	}
	// Positional.
	res = execParams(t, e, "SELECT name FROM Profile WHERE name = $1", map[string]any{"1": "Mike"})
	if len(res.Rows) != 1 {
		t.Fatalf("positional: %+v", res.Rows)
	}
	// Missing parameter errors.
	if _, err := e.Execute("SELECT name FROM Profile WHERE age > $missing", executor.Options{}); err == nil {
		t.Error("missing param should error")
	}
}

func TestGroupByHavingAggregates(t *testing.T) {
	e, _ := fixture(t)
	res := mustExec(t, e, `SELECT city, COUNT(*) AS n, AVG(age) AS avg_age FROM Profile GROUP BY city HAVING COUNT(*) >= 1 ORDER BY city`)
	if len(res.Rows) != 3 {
		t.Fatalf("groups: %+v", res.Rows)
	}
	// Irvine, NY, SF in order.
	sf := res.Rows[2]
	if field(sf, "city") != "SF" || field(sf, "n") != 2.0 || field(sf, "avg_age") != 37.5 {
		t.Errorf("SF group: %+v", sf)
	}
	// HAVING filters.
	res = mustExec(t, e, `SELECT city FROM Profile GROUP BY city HAVING COUNT(*) > 1`)
	if len(res.Rows) != 1 || field(res.Rows[0], "city") != "SF" {
		t.Errorf("having: %+v", res.Rows)
	}
	// Global aggregate without GROUP BY.
	res = mustExec(t, e, "SELECT COUNT(*) AS total, MAX(age) AS oldest FROM Profile")
	if field(res.Rows[0], "total") != 4.0 || field(res.Rows[0], "oldest") != 60.0 {
		t.Errorf("global agg: %+v", res.Rows)
	}
	// Aggregate over empty set still returns one row.
	res = mustExec(t, e, `SELECT COUNT(*) AS n FROM Profile WHERE age > 1000`)
	if len(res.Rows) != 1 || field(res.Rows[0], "n") != 0.0 {
		t.Errorf("empty agg: %+v", res.Rows)
	}
}

func TestDistinct(t *testing.T) {
	e, _ := fixture(t)
	res := mustExec(t, e, "SELECT DISTINCT city FROM Profile")
	if len(res.Rows) != 3 {
		t.Errorf("distinct: %+v", res.Rows)
	}
}

func TestPaperJoinExample(t *testing.T) {
	e, _ := fixture(t)
	// Orders joined to their user profile by key.
	res := mustExec(t, e, `
		SELECT o.total, p.name
		FROM orders o INNER JOIN Profile p ON KEYS o.user
		ORDER BY o.total`)
	if len(res.Rows) != 3 {
		t.Fatalf("join rows: %+v", res.Rows)
	}
	if field(res.Rows[0], "total") != 50.0 || field(res.Rows[0], "name") != "Dipti" {
		t.Errorf("join row: %+v", res.Rows[0])
	}
	// LEFT OUTER keeps unmatched outer rows.
	res = mustExec(t, e, `
		SELECT o.total, p.name FROM orders o LEFT JOIN Profile p ON KEYS o.nonexistent ORDER BY o.total`)
	if len(res.Rows) != 3 {
		t.Fatalf("left join rows: %+v", res.Rows)
	}
	if _, hasName := res.Rows[0].(map[string]any)["name"]; hasName {
		t.Error("unmatched left join should omit missing name")
	}
}

func TestPaperNestExample(t *testing.T) {
	e, _ := fixture(t)
	// §3.2.3's NEST: orders nested into the user profile document.
	res := mustExec(t, e, `
		SELECT PO.personal_details, orders
		FROM profiles_orders PO
		USE KEYS 'po1'
		NEST profiles_orders AS orders
		ON KEYS ARRAY s.order_id FOR s IN PO.shipped_order_history END`)
	if len(res.Rows) != 1 {
		t.Fatalf("nest rows: %+v", res.Rows)
	}
	orders := field(res.Rows[0], "orders").([]any)
	if len(orders) != 2 {
		t.Fatalf("nested orders: %+v", orders)
	}
	if field(orders[0], "total") != 10.0 {
		t.Errorf("nested order: %+v", orders[0])
	}
}

func TestPaperUnnestExample(t *testing.T) {
	e, _ := fixture(t)
	// §3.2.3's UNNEST: distinct categories in use.
	res := mustExec(t, e, `SELECT DISTINCT (categories) FROM product UNNEST product.categories AS categories ORDER BY categories`)
	var got []string
	for _, r := range res.Rows {
		got = append(got, field(r, "categories").(string))
	}
	want := []string{"home", "tech", "tools"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("categories: %v", got)
	}
	// Unnest multiplies rows.
	res = mustExec(t, e, `SELECT o.total, item.sku FROM orders o UNNEST o.items AS item ORDER BY item.sku`)
	if len(res.Rows) != 3 {
		t.Fatalf("unnest rows: %+v", res.Rows)
	}
}

func TestInsertUpsertDelete(t *testing.T) {
	e, s := fixture(t)
	res := mustExec(t, e, `INSERT INTO Profile (KEY, VALUE) VALUES ("new1", {"name": "New", "age": 1})`)
	if res.MutationCount != 1 {
		t.Fatalf("insert count: %d", res.MutationCount)
	}
	if _, ok := s.docs["Profile"]["new1"]; !ok {
		t.Fatal("doc not inserted")
	}
	// Duplicate INSERT fails; UPSERT succeeds.
	if _, err := e.Execute(`INSERT INTO Profile (KEY, VALUE) VALUES ("new1", {"x": 1})`, executor.Options{}); err == nil {
		t.Error("duplicate insert should fail")
	}
	mustExec(t, e, `UPSERT INTO Profile (KEY, VALUE) VALUES ("new1", {"name": "New2"})`)
	doc, _, _ := s.Fetch(context.Background(), "Profile", "new1")
	if field(doc, "name") != "New2" {
		t.Errorf("after upsert: %+v", doc)
	}
	// RETURNING.
	res = mustExec(t, e, `INSERT INTO Profile (KEY, VALUE) VALUES ("new2", {"name": "R"}) RETURNING meta().id, name`)
	if len(res.Rows) != 1 || field(res.Rows[0], "id") != "new2" || field(res.Rows[0], "name") != "R" {
		t.Errorf("returning: %+v", res.Rows)
	}
	// DELETE with WHERE.
	res = mustExec(t, e, `DELETE FROM Profile WHERE name = "New2" RETURNING name`)
	if res.MutationCount != 1 || len(res.Rows) != 1 {
		t.Errorf("delete: %+v", res)
	}
	if _, ok := s.docs["Profile"]["new1"]; ok {
		t.Error("doc not deleted")
	}
}

func TestUpdateSetUnset(t *testing.T) {
	e, s := fixture(t)
	res := mustExec(t, e, `UPDATE Profile USE KEYS "carey000" SET age = 61, extra.note = "hi" UNSET email RETURNING age`)
	if res.MutationCount != 1 || field(res.Rows[0], "age") != 61.0 {
		t.Fatalf("update: %+v", res)
	}
	doc, _, _ := s.Fetch(context.Background(), "Profile", "carey000")
	if field(doc, "age") != 61.0 {
		t.Errorf("age: %v", field(doc, "age"))
	}
	if !value.IsMissing(field(doc, "email")) {
		t.Error("email not unset")
	}
	if evalPath("extra.note", doc) != "hi" {
		t.Error("nested set failed")
	}
	// Update by WHERE with LIMIT.
	res = mustExec(t, e, `UPDATE Profile SET flagged = TRUE WHERE city = "SF" LIMIT 1`)
	if res.MutationCount != 1 {
		t.Errorf("limited update count: %d", res.MutationCount)
	}
}

func TestExplainOutput(t *testing.T) {
	e, _ := fixture(t)
	mustExec(t, e, "CREATE INDEX byAge ON Profile(age)")
	res := mustExec(t, e, "EXPLAIN SELECT name FROM Profile WHERE age > 30")
	if len(res.Rows) != 1 {
		t.Fatalf("explain rows: %+v", res.Rows)
	}
	plan := res.Rows[0].(map[string]any)
	ops := plan["operators"].([]any)
	first := ops[0].(map[string]any)
	if first["#operator"] != "IndexScan" || first["index"] != "byAge" {
		t.Errorf("explain first op: %+v", first)
	}
	// EXPLAIN DELETE.
	res = mustExec(t, e, `EXPLAIN DELETE FROM Profile WHERE age > 30`)
	if res.Rows[0].(map[string]any)["#mutation"] != "Delete" {
		t.Errorf("explain delete: %+v", res.Rows[0])
	}
}

func TestCoveringQueryEndToEnd(t *testing.T) {
	e, _ := fixture(t)
	mustExec(t, e, "CREATE INDEX emailIdx ON Profile(email)")
	res := mustExec(t, e, `SELECT email FROM Profile WHERE email LIKE "%couchbase.com" ORDER BY email`)
	// LIKE is not sargable here, but email is covered: result correct.
	if len(res.Rows) != 4 {
		t.Fatalf("covered rows: %+v", res.Rows)
	}
	if field(res.Rows[0], "email") != "dipti@couchbase.com" {
		t.Errorf("first: %+v", res.Rows[0])
	}
	// Verify plan really covers.
	pres := mustExec(t, e, `EXPLAIN SELECT email FROM Profile WHERE email LIKE "%couchbase.com"`)
	ops := pres.Rows[0].(map[string]any)["operators"].([]any)
	first := ops[0].(map[string]any)
	if first["covering"] != true {
		t.Errorf("not covering: %+v", first)
	}
	for _, op := range ops {
		if op.(map[string]any)["#operator"] == "Fetch" {
			t.Error("covered plan must not fetch")
		}
	}
}

func TestArrayIndexQuery(t *testing.T) {
	e, _ := fixture(t)
	mustExec(t, e, "CREATE INDEX byCat ON Profile(ARRAY c FOR c IN categories END)")
	res := mustExec(t, e, `SELECT name FROM Profile WHERE ANY c IN categories SATISFIES c = "db" END ORDER BY name`)
	if len(res.Rows) != 2 {
		t.Fatalf("array query: %+v", res.Rows)
	}
	if field(res.Rows[0], "name") != "Dipti" || field(res.Rows[1], "name") != "Gerald" {
		t.Errorf("rows: %+v", res.Rows)
	}
	pres := mustExec(t, e, `EXPLAIN SELECT name FROM Profile WHERE ANY c IN categories SATISFIES c = "db" END`)
	first := pres.Rows[0].(map[string]any)["operators"].([]any)[0].(map[string]any)
	if first["index"] != "byCat" {
		t.Errorf("array index not chosen: %+v", first)
	}
}

func TestPartialIndexQuery(t *testing.T) {
	e, _ := fixture(t)
	mustExec(t, e, "CREATE INDEX over35 ON Profile(age) WHERE age > 35")
	res := mustExec(t, e, "SELECT name FROM Profile WHERE age > 35 ORDER BY age")
	if len(res.Rows) != 3 {
		t.Fatalf("partial rows: %+v", res.Rows)
	}
	pres := mustExec(t, e, "EXPLAIN SELECT name FROM Profile WHERE age > 35")
	first := pres.Rows[0].(map[string]any)["operators"].([]any)[0].(map[string]any)
	if first["index"] != "over35" {
		t.Errorf("partial index not chosen: %+v", first)
	}
}

func TestDeferBuildLifecycle(t *testing.T) {
	e, s := fixture(t)
	mustExec(t, e, `CREATE INDEX lazy ON Profile(age) WITH {"defer_build": true}`)
	// Planner ignores it: the query still works via primary.
	pres := mustExec(t, e, "EXPLAIN SELECT name FROM Profile WHERE age > 0")
	first := pres.Rows[0].(map[string]any)["operators"].([]any)[0].(map[string]any)
	if first["#operator"] != "PrimaryScan" {
		t.Errorf("deferred index used: %+v", first)
	}
	s.BuildIndex("Profile", "lazy")
	pres = mustExec(t, e, "EXPLAIN SELECT name FROM Profile WHERE age > 0")
	first = pres.Rows[0].(map[string]any)["operators"].([]any)[0].(map[string]any)
	if first["index"] != "lazy" {
		t.Errorf("built index unused: %+v", first)
	}
}

func TestDropIndexStatement(t *testing.T) {
	e, _ := fixture(t)
	mustExec(t, e, "CREATE INDEX tmp ON Profile(age)")
	res := mustExec(t, e, "DROP INDEX Profile.tmp")
	if res.Status != "dropped" {
		t.Errorf("status: %s", res.Status)
	}
	if _, err := e.Execute("DROP INDEX Profile.tmp", executor.Options{}); err == nil {
		t.Error("double drop should fail")
	}
}

func TestWorkloadEQueryShape(t *testing.T) {
	e, _ := fixture(t)
	// The appendix query, named params.
	res := execParams(t, e,
		"SELECT meta().id AS id FROM Profile WHERE meta().id >= $1 LIMIT $2",
		map[string]any{"1": "carey000", "2": 2.0})
	if len(res.Rows) != 2 {
		t.Fatalf("rows: %+v", res.Rows)
	}
	if field(res.Rows[0], "id") != "carey000" {
		t.Errorf("first id: %+v", res.Rows[0])
	}
}

func TestFromlessSelect(t *testing.T) {
	e, _ := fixture(t)
	res := mustExec(t, e, "SELECT 1 + 1 AS two, UPPER('x') AS up")
	if field(res.Rows[0], "two") != 2.0 || field(res.Rows[0], "up") != "X" {
		t.Errorf("fromless: %+v", res.Rows)
	}
	// RAW.
	res = mustExec(t, e, "SELECT RAW 6 * 7")
	if res.Rows[0] != 42.0 {
		t.Errorf("raw: %+v", res.Rows)
	}
}

func TestQueryErrors(t *testing.T) {
	e, _ := fixture(t)
	if _, err := e.Execute("", executor.Options{}); err != ErrEmptyStatement {
		t.Errorf("empty: %v", err)
	}
	if _, err := e.Execute("SELEKT 1", executor.Options{}); err == nil {
		t.Error("parse error expected")
	}
	if _, err := e.Execute("SELECT * FROM nosuchks", executor.Options{}); err == nil {
		t.Error("unknown keyspace expected to fail")
	}
	if _, err := e.Execute("SELECT * FROM Profile LIMIT -1", executor.Options{}); err == nil {
		t.Error("negative limit should fail")
	}
	if _, err := e.Execute(`INSERT INTO Profile (KEY, VALUE) VALUES (42, {})`, executor.Options{}); err == nil {
		t.Error("non-string key should fail")
	}
}

func TestRawAndAliases(t *testing.T) {
	e, _ := fixture(t)
	res := mustExec(t, e, `SELECT RAW name FROM Profile USE KEYS "borkar123"`)
	if res.Rows[0] != "Dipti" {
		t.Errorf("raw: %+v", res.Rows)
	}
	// Unaliased expression names derive from the path.
	res = mustExec(t, e, `SELECT p.address FROM Profile p USE KEYS "borkar123"`)
	_ = res // address missing -> omitted entirely
	if len(res.Rows) != 1 || len(res.Rows[0].(map[string]any)) != 0 {
		t.Errorf("missing projection should be omitted: %+v", res.Rows)
	}
}

func TestGeneralJoinsRejectedByQueryService(t *testing.T) {
	e, _ := fixture(t)
	_, err := e.Execute("SELECT * FROM Profile p JOIN orders o ON o.user = p.uid", executor.Options{})
	if err == nil || !strings.Contains(err.Error(), "general") {
		t.Fatalf("general join should be rejected: %v", err)
	}
}

// churnStore fails its first `fail` scans as a store does whose index
// was dropped after the plan chose it, the catalog epoch moving each
// time.
type churnStore struct {
	*memStore
	fail, scans int
}

func (s *churnStore) ScanIndex(ctx context.Context, keyspace, index string, using n1ql.IndexUsing, opts gsi.ScanOptions) ([]gsi.ScanItem, bool, error) {
	if s.scans++; s.scans <= s.fail {
		s.epoch.Add(1)
		return nil, false, errors.New("no such index")
	}
	return s.memStore.ScanIndex(ctx, keyspace, index, using, opts)
}

func TestReplanOnMovedEpochIsBounded(t *testing.T) {
	_, s := fixture(t)
	const stmt = "SELECT meta().id FROM Profile"
	// One lost index: planned again, and the profile is the run that
	// answered, not both.
	cs := &churnStore{memStore: s, fail: 1}
	prof := executor.NewProfile()
	res, err := NewEngine(cs).Execute(stmt, executor.Options{Prof: prof})
	if err != nil || len(res.Rows) != 4 || cs.scans != 2 {
		t.Fatalf("one re-plan: %d rows after %d scans, err %v", len(res.Rows), cs.scans, err)
	}
	seen := map[string]int{}
	for _, ph := range res.Profile {
		seen[ph.Operator]++
	}
	if seen["parse"] != 1 || seen["plan"] != 1 || seen["scan"] != 1 {
		t.Errorf("profile after a re-plan: %v", res.Profile)
	}
	// A catalog that never settles: the first run and two re-plans.
	cs = &churnStore{memStore: s, fail: 1 << 30}
	if _, err := NewEngine(cs).Execute(stmt, executor.Options{}); err == nil || cs.scans != 3 {
		t.Errorf("endless churn: %d scans, err %v", cs.scans, err)
	}
	// A dead request is not run again.
	cs = &churnStore{memStore: s, fail: 1 << 30}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewEngine(cs).Execute(stmt, executor.Options{Ctx: ctx}); err == nil || cs.scans > 1 {
		t.Errorf("cancelled: %d scans, err %v", cs.scans, err)
	}
}

func TestInsertIsNotKept(t *testing.T) {
	e, _ := fixture(t)
	before := len(e.prepared)
	mustExec(t, e, `INSERT INTO Profile (KEY, VALUE) VALUES ("once", {"big": "document"})`)
	mustExec(t, e, `SELECT meta().id FROM Profile`)
	if got := len(e.prepared) - before; got != 1 {
		t.Errorf("cache grew by %d entries, want the SELECT only", got)
	}
}

// evalPath reads the path s in doc.
func evalPath(s string, doc any) any {
	p, _ := value.ParsePath(s)
	return p.Eval(doc)
}
