package executor

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"couchgo/internal/gsi"
	"couchgo/internal/n1ql"
	"couchgo/internal/planner"
	"couchgo/internal/value"
)

// stubDS is a minimal Datastore for unit-testing individual operators.
type stubDS struct {
	mu   sync.Mutex
	docs map[string]any
	// fetchConcurrency observes the parallel Fetch operator.
	inFlight, maxInFlight atomic.Int32
	fetches               atomic.Int32
	// scans counts ScanIndex calls, scanned the entries they returned.
	scans, scanned atomic.Int32
}

func newStubDS() *stubDS { return &stubDS{docs: map[string]any{}} }

func (s *stubDS) put(id, doc string) { s.docs[id] = value.MustParse(doc) }

func (s *stubDS) Fetch(_ context.Context, _ string, id string) (any, n1ql.Meta, error) {
	cur := s.inFlight.Add(1)
	for {
		max := s.maxInFlight.Load()
		if cur <= max || s.maxInFlight.CompareAndSwap(max, cur) {
			break
		}
	}
	// Hold the slot briefly so overlap is observable even on one CPU.
	time.Sleep(200 * time.Microsecond)
	defer s.inFlight.Add(-1)
	s.fetches.Add(1)
	s.mu.Lock()
	doc, ok := s.docs[id]
	s.mu.Unlock()
	if !ok {
		return nil, n1ql.Meta{}, ErrNotFound
	}
	return doc, n1ql.Meta{ID: id}, nil
}

// ScanIndex is a primary index over the stub's documents: IDs at or
// above an inclusive Low, strictly after the continuation, one page.
func (s *stubDS) ScanIndex(_ context.Context, _, _ string, _ n1ql.IndexUsing, opts gsi.ScanOptions) ([]gsi.ScanItem, bool, error) {
	s.scans.Add(1)
	s.mu.Lock()
	defer s.mu.Unlock()
	var ids []string
	for id := range s.docs {
		if opts.After != nil && id <= opts.After.DocID {
			continue
		}
		if opts.Low != nil && id < opts.Low[0].(string) {
			continue
		}
		ids = append(ids, id)
	}
	sort.Strings(ids)
	more := opts.Limit > 0 && len(ids) > opts.Limit
	if more {
		ids = ids[:opts.Limit]
	}
	out := make([]gsi.ScanItem, len(ids))
	for i, id := range ids {
		out[i] = gsi.ScanItem{DocID: id, SecKey: []any{id}}
	}
	s.scanned.Add(int32(len(out)))
	return out, more, nil
}

func (s *stubDS) ConsistencyVector(string) map[int]uint64 { return nil }

func (s *stubDS) InsertDoc(_ context.Context, _, id string, doc any, upsert bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.docs[id]; ok && !upsert {
		return fmt.Errorf("exists")
	}
	s.docs[id] = doc
	return nil
}

func (s *stubDS) UpdateDoc(_ context.Context, _, id string, doc any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.docs[id]; !ok {
		return ErrNotFound
	}
	s.docs[id] = doc
	return nil
}

func (s *stubDS) DeleteDoc(_ context.Context, _, id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.docs[id]; !ok {
		return ErrNotFound
	}
	delete(s.docs, id)
	return nil
}

type stubCat struct{}

func (stubCat) KeyspaceExists(string) bool { return true }
func (stubCat) Indexes(string) []planner.IndexInfo {
	return []planner.IndexInfo{{Name: "#primary", IsPrimary: true, SecCanonical: []string{"meta().id"}, Built: true}}
}

func planOf(t *testing.T, src string) *planner.SelectPlan {
	t.Helper()
	stmt, err := n1ql.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := planner.PlanSelect(stmt.(*n1ql.Select), stubCat{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func planMutation(t *testing.T, stmt n1ql.Statement) *planner.MutationPlan {
	t.Helper()
	mp, err := planner.PlanMutation(stmt, stubCat{})
	if err != nil {
		t.Fatal(err)
	}
	return mp
}

func planInsert(t *testing.T, stmt n1ql.Statement) *planner.InsertPlan {
	t.Helper()
	ip, err := planner.PlanInsert(stmt.(*n1ql.Insert), stubCat{})
	if err != nil {
		t.Fatal(err)
	}
	return ip
}

func TestFetchIsParallelAndOrdered(t *testing.T) {
	ds := newStubDS()
	for i := 0; i < 64; i++ {
		ds.put(fmt.Sprintf("doc%02d", i), fmt.Sprintf(`{"i": %d}`, i))
	}
	p := planOf(t, "SELECT i FROM b")
	rows, err := ExecuteSelect(p, ds, Options{FetchParallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 64 {
		t.Fatalf("rows: %d", len(rows))
	}
	// Scan order (by id) is preserved through the parallel fetch.
	for i, r := range rows {
		if got := r.(map[string]any)["i"]; got != float64(i) {
			t.Fatalf("row %d = %v", i, got)
		}
	}
	if ds.maxInFlight.Load() < 2 {
		t.Errorf("fetch not parallel: max in flight %d", ds.maxInFlight.Load())
	}
}

func TestMissingDocsDropFromKeyScan(t *testing.T) {
	ds := newStubDS()
	ds.put("a", `{"v": 1}`)
	p := planOf(t, `SELECT v FROM b USE KEYS ["a", "ghost", "also-ghost"]`)
	rows, err := ExecuteSelect(p, ds, Options{})
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows: %v, %v", rows, err)
	}
}

func TestUseKeysTypeErrors(t *testing.T) {
	ds := newStubDS()
	p := planOf(t, `SELECT v FROM b USE KEYS 42`)
	if _, err := ExecuteSelect(p, ds, Options{}); err == nil {
		t.Error("numeric USE KEYS should fail")
	}
	// Array with non-strings: non-strings skipped.
	ds.put("a", `{"v": 1}`)
	p = planOf(t, `SELECT v FROM b USE KEYS ["a", 42]`)
	rows, err := ExecuteSelect(p, ds, Options{})
	if err != nil || len(rows) != 1 {
		t.Fatalf("mixed keys: %v %v", rows, err)
	}
}

func TestLimitOffsetValidation(t *testing.T) {
	ds := newStubDS()
	for _, src := range []string{
		"SELECT v FROM b LIMIT -1",
		`SELECT v FROM b LIMIT "x"`,
		"SELECT v FROM b OFFSET -2",
	} {
		p := planOf(t, src)
		if _, err := ExecuteSelect(p, ds, Options{}); err == nil {
			t.Errorf("%s should fail", src)
		}
	}
	// Offset beyond result set yields empty.
	ds.put("a", `{"v": 1}`)
	p := planOf(t, "SELECT v FROM b OFFSET 10")
	rows, err := ExecuteSelect(p, ds, Options{})
	if err != nil || len(rows) != 0 {
		t.Fatalf("big offset: %v %v", rows, err)
	}
	p = planOf(t, "SELECT v FROM b LIMIT 5 OFFSET 1")
	if rows, err = ExecuteSelect(p, ds, Options{}); err != nil || len(rows) != 0 {
		t.Fatalf("offset = span: %v %v", rows, err)
	}
	// LIMIT 0 is a demand of no rows: no page is requested and no
	// document fetched, whatever else the statement says.
	for _, src := range []string{
		"SELECT v FROM b LIMIT 0",
		"SELECT v FROM b WHERE v = 1 LIMIT 0 OFFSET 3",
		"SELECT meta().id FROM b LIMIT 0",
	} {
		ds.scans.Store(0)
		ds.fetches.Store(0)
		rows, err := ExecuteSelect(planOf(t, src), ds, Options{})
		if err != nil || len(rows) != 0 {
			t.Fatalf("%s: %v %v", src, rows, err)
		}
		if ds.scans.Load() != 0 || ds.fetches.Load() != 0 {
			t.Errorf("%s: %d scans, %d fetches, want none", src, ds.scans.Load(), ds.fetches.Load())
		}
	}
}

// TestLimitBoundsScanAndFetch: the rows a LIMIT still needs are all the
// scan reads and all the fetch retrieves, for a SELECT and for the
// DELETE that shares its pipeline.
func TestLimitBoundsScanAndFetch(t *testing.T) {
	ds := newStubDS()
	for i := 0; i < 5000; i++ {
		ds.put(fmt.Sprintf("k%04d", i), `{"v": 1}`)
	}
	// Non-covering (SELECT *), residual WHERE that keeps every row.
	p := planOf(t, "SELECT * FROM b WHERE meta().id >= $1 LIMIT 10")
	rows, err := ExecuteSelect(p, ds, Options{Params: map[string]any{"1": "k1000"}})
	if err != nil || len(rows) != 10 {
		t.Fatalf("rows: %d %v", len(rows), err)
	}
	if got := rows[0].(map[string]any)["b"]; got == nil {
		t.Fatalf("first row: %v", rows[0])
	}
	// Nothing is dropped, so one page of 10 is all it takes; a second
	// page's worth would still be acceptable.
	if n := ds.fetches.Load(); n < 10 || n > 20 {
		t.Errorf("fetched %d documents for LIMIT 10", n)
	}
	if n := ds.scanned.Load(); n < 10 || n > 20 {
		t.Errorf("scanned %d entries for LIMIT 10", n)
	}
	if ds.maxInFlight.Load() > 8 {
		t.Errorf("%d fetches in flight, pool is 8", ds.maxInFlight.Load())
	}

	// A filter that rejects every other row makes the scan come back
	// for more, in growing pages, and still stop.
	for i := 0; i < 5000; i += 2 {
		ds.put(fmt.Sprintf("k%04d", i), `{"v": 2}`)
	}
	ds.scans.Store(0)
	ds.scanned.Store(0)
	p = planOf(t, "SELECT meta().id FROM b WHERE v = 1 LIMIT 100")
	if rows, err = ExecuteSelect(p, ds, Options{}); err != nil || len(rows) != 100 {
		t.Fatalf("rows: %d %v", len(rows), err)
	}
	if n := ds.scanned.Load(); n < 200 || n > 400 {
		t.Errorf("scanned %d entries for 100 rows at 50%% selectivity", n)
	}
	if n := ds.scans.Load(); n < 2 || n > 4 {
		t.Errorf("%d pages, want a few growing ones", n)
	}

	ds.scanned.Store(0)
	stmt, _ := n1ql.Parse("DELETE FROM b WHERE v = 2 LIMIT 4")
	res, err := ExecuteDelete(planMutation(t, stmt), ds, Options{})
	if err != nil || res.MutationCount != 4 {
		t.Fatalf("delete: %+v %v", res, err)
	}
	if n := ds.scanned.Load(); n < 8 || n > 16 {
		t.Errorf("DELETE ... LIMIT 4 scanned %d entries at 50%% selectivity", n)
	}
}

func TestGroupEmptyInputProducesOneRow(t *testing.T) {
	ds := newStubDS() // no docs
	p := planOf(t, "SELECT COUNT(*) AS n, SUM(v) AS s FROM b")
	rows, err := ExecuteSelect(p, ds, Options{})
	if err != nil || len(rows) != 1 {
		t.Fatalf("rows: %v %v", rows, err)
	}
	obj := rows[0].(map[string]any)
	if obj["n"] != 0.0 {
		t.Errorf("count: %v", obj)
	}
	if _, has := obj["s"]; has && obj["s"] != nil {
		t.Errorf("sum of nothing should be null: %v", obj["s"])
	}
}

func TestGroupByWithExpressionKeys(t *testing.T) {
	ds := newStubDS()
	ds.put("a", `{"age": 21}`)
	ds.put("b", `{"age": 29}`)
	ds.put("c", `{"age": 35}`)
	p := planOf(t, "SELECT FLOOR(age / 10) AS decade, COUNT(*) AS n FROM b GROUP BY FLOOR(age / 10) ORDER BY decade")
	rows, err := ExecuteSelect(p, ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("groups: %v", rows)
	}
	if rows[0].(map[string]any)["n"] != 2.0 {
		t.Errorf("decade 2 count: %v", rows[0])
	}
}

func TestInsertReturningAndErrors(t *testing.T) {
	ds := newStubDS()
	stmt, _ := n1ql.Parse(`INSERT INTO b (KEY, VALUE) VALUES ("k1", {"v": 1}) RETURNING meta().id AS id`)
	res, err := ExecuteInsert(planInsert(t, stmt), ds, Options{})
	if err != nil || res.MutationCount != 1 {
		t.Fatalf("insert: %+v %v", res, err)
	}
	if res.Returning[0].(map[string]any)["id"] != "k1" {
		t.Errorf("returning: %v", res.Returning)
	}
	// Duplicate.
	if _, err := ExecuteInsert(planInsert(t, stmt), ds, Options{}); err == nil {
		t.Error("duplicate insert should fail")
	}
	// Non-string key.
	stmt, _ = n1ql.Parse(`INSERT INTO b (KEY, VALUE) VALUES (5, {})`)
	if _, err := ExecuteInsert(planInsert(t, stmt), ds, Options{}); err == nil {
		t.Error("numeric key should fail")
	}
}

func TestUpdatePathHandling(t *testing.T) {
	ds := newStubDS()
	ds.put("k", `{"a": {"b": 1}, "arr": [10, 20]}`)
	run := func(src string) {
		t.Helper()
		stmt, err := n1ql.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ExecuteUpdate(planMutation(t, stmt), ds, Options{}); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	run(`UPDATE b USE KEYS "k" SET a.b = 2`)
	run(`UPDATE b USE KEYS "k" SET arr[1] = 99`)
	run(`UPDATE b USE KEYS "k" SET fresh.deep.field = "v"`)
	run(`UPDATE b USE KEYS "k" UNSET a.b`)
	doc := ds.docs["k"]
	if value.MustParsePath("arr[1]").Eval(doc) != 99.0 {
		t.Errorf("array set: %v", doc)
	}
	if value.MustParsePath("fresh.deep.field").Eval(doc) != "v" {
		t.Errorf("deep create: %v", doc)
	}
	if !value.IsMissing(value.MustParsePath("a.b").Eval(doc)) {
		t.Errorf("unset: %v", doc)
	}
	// Alias-qualified path.
	run(`UPDATE b AS d USE KEYS "k" SET d.viaAlias = TRUE`)
	if value.MustParsePath("viaAlias").Eval(ds.docs["k"]) != true {
		t.Errorf("alias path: %v", ds.docs["k"])
	}
}

func TestDeleteWithLimit(t *testing.T) {
	ds := newStubDS()
	for i := 0; i < 10; i++ {
		ds.put(fmt.Sprintf("k%d", i), `{"v": 1}`)
	}
	stmt, _ := n1ql.Parse("DELETE FROM b WHERE v = 1 LIMIT 4")
	res, err := ExecuteDelete(planMutation(t, stmt), ds, Options{})
	if err != nil || res.MutationCount != 4 {
		t.Fatalf("delete: %+v %v", res, err)
	}
	if len(ds.docs) != 6 {
		t.Errorf("remaining: %d", len(ds.docs))
	}
}

func TestDistinctOnProjectedValues(t *testing.T) {
	ds := newStubDS()
	ds.put("a", `{"city": "SF", "x": 1}`)
	ds.put("b", `{"city": "SF", "x": 2}`)
	ds.put("c", `{"city": "NY", "x": 3}`)
	p := planOf(t, "SELECT DISTINCT city FROM b")
	rows, err := ExecuteSelect(p, ds, Options{})
	if err != nil || len(rows) != 2 {
		t.Fatalf("distinct: %v %v", rows, err)
	}
}

func TestUnnestLeftOuter(t *testing.T) {
	ds := newStubDS()
	ds.put("a", `{"name": "hasitems", "items": [1, 2]}`)
	ds.put("b", `{"name": "noitems"}`)
	// INNER UNNEST drops rows without the array.
	p := planOf(t, "SELECT name FROM b UNNEST items AS it")
	rows, _ := ExecuteSelect(p, ds, Options{})
	if len(rows) != 2 {
		t.Fatalf("inner unnest: %v", rows)
	}
	// LEFT OUTER UNNEST keeps them.
	p = planOf(t, "SELECT name FROM b LEFT UNNEST items AS it")
	rows, _ = ExecuteSelect(p, ds, Options{})
	if len(rows) != 3 {
		t.Fatalf("left unnest: %v", rows)
	}
}

func TestSortDescendingAndTies(t *testing.T) {
	ds := newStubDS()
	ds.put("a", `{"g": 1, "n": "x"}`)
	ds.put("b", `{"g": 2, "n": "y"}`)
	ds.put("c", `{"g": 1, "n": "z"}`)
	p := planOf(t, "SELECT g, n FROM b ORDER BY g DESC, n ASC")
	rows, err := ExecuteSelect(p, ds, Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := rows[0].(map[string]any)
	if first["g"] != 2.0 {
		t.Fatalf("desc order: %v", rows)
	}
	second := rows[1].(map[string]any)
	if second["n"] != "x" {
		t.Fatalf("tie break: %v", rows)
	}
}
