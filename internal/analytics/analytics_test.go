package analytics

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"couchgo/internal/dcp"
	"couchgo/internal/executor"
	"couchgo/internal/gsi"
	"couchgo/internal/memcproto"
	"couchgo/internal/n1ql"
	"couchgo/internal/storage"
	"couchgo/internal/vbucket"
)

type harness struct {
	engine *Engine
	vbs    []*vbucket.VBucket
}

func newHarness(t *testing.T, nvb int) *harness {
	t.Helper()
	h := &harness{engine: NewEngine("store")}
	dir := t.TempDir()
	for i := 0; i < nvb; i++ {
		f, err := storage.Open(filepath.Join(dir, fmt.Sprintf("vb%d.couch", i)), false)
		if err != nil {
			t.Fatal(err)
		}
		vb := vbucket.New(i, f, vbucket.Active, vbucket.Config{})
		h.vbs = append(h.vbs, vb)
		if err := h.engine.AttachVB(i, vb.Producer()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { vb.Close(); f.Close() })
	}
	t.Cleanup(h.engine.Close)
	return h
}

func (h *harness) put(t *testing.T, vb int, key, doc string) {
	t.Helper()
	if _, err := h.vbs[vb].Set(context.Background(), key, []byte(doc), 0, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
}

func (h *harness) fresh() map[int]uint64 {
	out := map[int]uint64{}
	for _, vb := range h.vbs {
		out[vb.ID] = vb.HighSeqno()
	}
	return out
}

func (h *harness) query(t *testing.T, stmt string) []any {
	t.Helper()
	rows, err := h.engine.Query(context.Background(), stmt, QueryOptions{WaitSeqnos: h.fresh()})
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return rows
}

// loadStore populates the standard two-doc-type analytic fixture.
func (h *harness) loadStore(t *testing.T) {
	t.Helper()
	for i := 0; i < 6; i++ {
		h.put(t, i%len(h.vbs), fmt.Sprintf("customer::%d", i),
			fmt.Sprintf(`{"type": "customer", "cid": %d, "region": "%s"}`, i, []string{"west", "east"}[i%2]))
	}
	for i := 0; i < 20; i++ {
		h.put(t, i%len(h.vbs), fmt.Sprintf("order::%d", i),
			fmt.Sprintf(`{"type": "order", "customer": %d, "total": %d}`, i%6, (i+1)*10))
	}
}

func TestQueryRequiresEnable(t *testing.T) {
	h := newHarness(t, 1)
	if _, err := h.engine.Query(context.Background(), "SELECT 1", QueryOptions{}); err != ErrNotEnabled {
		t.Fatalf("err = %v", err)
	}
	if err := h.engine.Enable(); err != nil {
		t.Fatal(err)
	}
	if !h.engine.Enabled() {
		t.Fatal("not enabled")
	}
	if err := h.engine.Enable(); err != nil {
		t.Fatal("double enable should be fine")
	}
}

func TestShadowBackfillsExistingData(t *testing.T) {
	h := newHarness(t, 2)
	h.loadStore(t)
	// Enable AFTER data exists: backfill covers it.
	if err := h.engine.Enable(); err != nil {
		t.Fatal(err)
	}
	rows := h.query(t, `SELECT COUNT(*) AS n FROM store`)
	if rows[0].(map[string]any)["n"] != 26.0 {
		t.Fatalf("count: %v", rows)
	}
	if h.engine.DatasetSize() != 26 {
		t.Fatalf("dataset size: %d", h.engine.DatasetSize())
	}
}

func TestShadowFollowsMutations(t *testing.T) {
	h := newHarness(t, 1)
	h.engine.Enable()
	h.put(t, 0, "d1", `{"v": 1}`)
	rows := h.query(t, `SELECT v FROM store USE KEYS "d1"`)
	if rows[0].(map[string]any)["v"] != 1.0 {
		t.Fatalf("rows: %v", rows)
	}
	h.put(t, 0, "d1", `{"v": 2}`)
	rows = h.query(t, `SELECT v FROM store USE KEYS "d1"`)
	if rows[0].(map[string]any)["v"] != 2.0 {
		t.Fatalf("after update: %v", rows)
	}
	h.vbs[0].Do(context.Background(), &vbucket.Op{Code: memcproto.OpDelete, Key: "d1"})
	rows = h.query(t, `SELECT v FROM store USE KEYS "d1"`)
	if len(rows) != 0 {
		t.Fatalf("after delete: %v", rows)
	}
}

func TestGeneralHashJoin(t *testing.T) {
	h := newHarness(t, 2)
	h.loadStore(t)
	h.engine.Enable()
	// The general join N1QL §3.2.4 forbids: orders joined to customers
	// on a secondary attribute, not a document key.
	rows := h.query(t, `
		SELECT c.region, SUM(o.total) AS revenue
		FROM store o
		JOIN store c ON o.customer = c.cid AND c.type = "customer"
		WHERE o.type = "order"
		GROUP BY c.region
		ORDER BY c.region`)
	if len(rows) != 2 {
		t.Fatalf("join groups: %v", rows)
	}
	east := rows[0].(map[string]any)
	west := rows[1].(map[string]any)
	if east["region"] != "east" || west["region"] != "west" {
		t.Fatalf("regions: %v", rows)
	}
	// Total revenue = sum of 10..200 = 2100, split across regions.
	if east["revenue"].(float64)+west["revenue"].(float64) != 2100.0 {
		t.Fatalf("revenue: %v", rows)
	}
}

func TestGeneralJoinEquiDetection(t *testing.T) {
	// The hash-join path and the nested-loop fallback must agree.
	h := newHarness(t, 1)
	h.loadStore(t)
	h.engine.Enable()
	hashRows := h.query(t, `
		SELECT COUNT(*) AS n FROM store o
		JOIN store c ON o.customer = c.cid
		WHERE o.type = "order"`)
	// Non-equi condition → nested loop.
	loopRows := h.query(t, `
		SELECT COUNT(*) AS n FROM store o
		JOIN store c ON o.customer = c.cid AND 1 = 1
		WHERE o.type = "order"`)
	hn := hashRows[0].(map[string]any)["n"]
	ln := loopRows[0].(map[string]any)["n"]
	if hn != ln {
		t.Fatalf("hash join %v != nested loop %v", hn, ln)
	}
	if hn != 20.0 {
		t.Fatalf("join rows: %v", hn)
	}
}

func TestGeneralLeftJoinAndNest(t *testing.T) {
	h := newHarness(t, 1)
	h.put(t, 0, "c1", `{"type": "customer", "cid": 1}`)
	h.put(t, 0, "c2", `{"type": "customer", "cid": 2}`)
	h.put(t, 0, "o1", `{"type": "order", "customer": 1, "total": 5}`)
	h.engine.Enable()
	// LEFT JOIN keeps the order-less customer.
	rows := h.query(t, `
		SELECT c.cid, o.total FROM store c
		LEFT JOIN store o ON o.customer = c.cid
		WHERE c.type = "customer" ORDER BY c.cid`)
	if len(rows) != 2 {
		t.Fatalf("left join: %v", rows)
	}
	if _, has := rows[1].(map[string]any)["total"]; has {
		t.Fatalf("unmatched row should lack total: %v", rows[1])
	}
	// General NEST collects matches into an array.
	rows = h.query(t, `
		SELECT c.cid, orders FROM store c
		NEST store AS orders ON orders.customer = c.cid
		WHERE c.type = "customer"`)
	if len(rows) != 1 {
		t.Fatalf("inner nest: %v", rows)
	}
	arr := rows[0].(map[string]any)["orders"].([]any)
	if len(arr) != 1 {
		t.Fatalf("nested: %v", arr)
	}
}

func TestAnalyticsIsReadOnly(t *testing.T) {
	h := newHarness(t, 1)
	h.engine.Enable()
	if _, err := h.engine.Query(context.Background(), `INSERT INTO store (KEY, VALUE) VALUES ("x", {})`, QueryOptions{}); err != ErrDML {
		t.Fatalf("insert: %v", err)
	}
	if _, err := h.engine.Query(context.Background(), `DELETE FROM store`, QueryOptions{}); err != ErrDML {
		t.Fatalf("delete: %v", err)
	}
}

func TestRicherAggregationsAndGrouping(t *testing.T) {
	h := newHarness(t, 2)
	h.loadStore(t)
	h.engine.Enable()
	rows := h.query(t, `
		SELECT o.customer AS cust, COUNT(*) AS n, SUM(o.total) AS sum, AVG(o.total) AS avg
		FROM store o WHERE o.type = "order"
		GROUP BY o.customer
		HAVING COUNT(*) >= 3
		ORDER BY cust`)
	if len(rows) != 6 {
		t.Fatalf("groups: %v", rows)
	}
	first := rows[0].(map[string]any)
	if first["n"].(float64) < 3 {
		t.Fatalf("having violated: %v", first)
	}
}

func TestDetachRemovesPartition(t *testing.T) {
	h := newHarness(t, 2)
	h.put(t, 0, "a", `{"v": 1}`)
	h.put(t, 1, "b", `{"v": 1}`)
	h.engine.Enable()
	h.query(t, "SELECT * FROM store") // sync
	h.engine.DetachVB(1)
	rows, err := h.engine.Query(context.Background(), "SELECT COUNT(*) AS n FROM store", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].(map[string]any)["n"] != 1.0 {
		t.Fatalf("after detach: %v", rows)
	}
}

func TestExplainOnAnalytics(t *testing.T) {
	h := newHarness(t, 1)
	h.engine.Enable()
	rows, err := h.engine.Query(context.Background(), `EXPLAIN SELECT a.x FROM store a JOIN store b ON a.k = b.k`, QueryOptions{})
	if err != nil || len(rows) != 1 {
		t.Fatalf("explain: %v %v", rows, err)
	}
}

func TestParseErrorsSurface(t *testing.T) {
	h := newHarness(t, 1)
	h.engine.Enable()
	if _, err := h.engine.Query(context.Background(), "SELEKT", QueryOptions{}); err == nil {
		t.Fatal("parse error expected")
	}
	if _, err := h.engine.Query(context.Background(), "SELECT * FROM otherks", QueryOptions{}); err == nil {
		t.Fatal("unknown keyspace expected")
	}
}

func TestQueryParameters(t *testing.T) {
	h := newHarness(t, 1)
	h.loadStore(t)
	h.engine.Enable()
	rows, err := h.engine.Query(context.Background(),
		`SELECT COUNT(*) AS n FROM store o WHERE o.type = "order" AND o.total >= $min`,
		QueryOptions{Params: map[string]any{"min": 150.0}, WaitSeqnos: h.fresh()})
	if err != nil {
		t.Fatal(err)
	}
	if got := rows[0].(map[string]any)["n"]; got != 6.0 {
		t.Fatalf("parameterized count: %v", got)
	}
	// Missing parameter surfaces an error.
	if _, err := h.engine.Query(context.Background(), "SELECT $nope FROM store", QueryOptions{}); err == nil {
		t.Fatal("missing param should error")
	}
}

// TestShadowStoreFetchAndPages gates the shadow's two index paths by
// count, not time: fetching one of 20 000 documents touches one tree
// entry (it walked the whole dataset per document before), and
// ScanIndex serves at most Limit entries resumed from After, its pages
// concatenating to the one-shot scan.
func TestShadowStoreFetchAndPages(t *testing.T) {
	e := NewEngine("store")
	defer e.Close()
	const docs = 20000
	for i := 0; i < docs; i++ {
		e.Apply(i%16, dcp.Mutation{Key: fmt.Sprintf("d%05d", i), Seqno: uint64(i + 1), Value: []byte(`{"v": 1}`)})
	}
	s, ctx := &shadowStore{e}, context.Background()
	last := fmt.Sprintf("d%05d", docs-1)
	before := e.tree.Stats().Visited
	if _, meta, err := s.Fetch(ctx, "store", last); err != nil || meta.ID != last || meta.Seqno != docs {
		t.Fatalf("fetch %s: %+v %v", last, meta, err)
	}
	if visited := e.tree.Stats().Visited - before; visited != 1 {
		t.Errorf("fetching one document touched %d entries", visited)
	}
	if _, _, err := s.Fetch(ctx, "store", "absent"); err != executor.ErrNotFound {
		t.Errorf("fetching an absent document: %v", err)
	}

	span := gsi.ScanOptions{Low: []any{"d19990"}, LowIncl: true}
	whole, more, err := s.ScanIndex(ctx, "store", "#shadow-primary", n1ql.UsingGSI, span)
	if err != nil || more || len(whole) != 10 {
		t.Fatalf("one-shot scan: %d entries, more %v, %v", len(whole), more, err)
	}
	for _, reverse := range []bool{false, true} {
		span.Reverse, span.Limit, span.After = reverse, 4, nil
		before, paged := e.tree.Stats().Visited, []gsi.ScanItem(nil)
		for {
			page, more, err := s.ScanIndex(ctx, "store", "#shadow-primary", n1ql.UsingGSI, span)
			if err != nil || len(page) > span.Limit || more != (len(page) == span.Limit) {
				t.Fatalf("page of %d entries for Limit %d, more %v, %v", len(page), span.Limit, more, err)
			}
			paged = append(paged, page...)
			if !more {
				break
			}
			span.After = &page[len(page)-1]
		}
		if visited := e.tree.Stats().Visited - before; len(paged) != len(whole) || visited != len(whole) {
			t.Fatalf("reverse %v: %d entries paged by visiting %d, %d in one scan", reverse, len(paged), visited, len(whole))
		}
		for i, it := range paged {
			want := whole[i]
			if reverse {
				want = whole[len(whole)-1-i]
			}
			if it.DocID != want.DocID {
				t.Fatalf("reverse %v: entry %d is %s, want %s", reverse, i, it.DocID, want.DocID)
			}
		}
	}
}
