package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"couchgo/internal/executor"
	"couchgo/internal/metrics"
	"couchgo/internal/n1ql"
	"couchgo/internal/planner"
	"couchgo/internal/query"
)

// planCacheCluster holds 40 orders (n = 0..39, two tags each) keyed into
// 5 customers, under a primary index.
func planCacheCluster(t *testing.T) *Cluster {
	t.Helper()
	c, cl := newTestCluster(t, 1, 0)
	mustQuery(t, c, "CREATE PRIMARY INDEX ON `default`", nil)
	for i := 0; i < 5; i++ {
		doc := fmt.Sprintf(`{"kind": "cust", "city": "city%d"}`, i)
		if _, err := cl.Set(context.Background(), fmt.Sprintf("c%d", i), []byte(doc), 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		doc := fmt.Sprintf(`{"kind": "order", "n": %d, "cust": "c%d", "tags": ["a", "t%d"]}`, i, i%5, i%3)
		if _, err := cl.Set(context.Background(), fmt.Sprintf("o%02d", i), []byte(doc), 0); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func mustQuery(t *testing.T, c *Cluster, stmt string, params map[string]any) []any {
	t.Helper()
	res, err := c.Query(stmt, executor.Options{Params: params, Consistency: executor.RequestPlus})
	if err != nil {
		t.Fatalf("%s: %v", stmt, err)
	}
	return res.Rows
}

// accessPath names the scan an EXPLAIN answer starts with.
func accessPath(explain []any) string {
	op := explain[0].(map[string]any)["operators"].([]any)[0].(map[string]any)
	return fmt.Sprint(op["#operator"], " ", op["index"])
}

func parseCreateIndex(t *testing.T, stmt string) *n1ql.CreateIndex {
	t.Helper()
	s, err := n1ql.Parse(stmt)
	if err != nil {
		t.Fatal(err)
	}
	return s.(*n1ql.CreateIndex)
}

// TestPlanCacheInvalidation: for every way the catalog can change, a
// statement whose plan is cached runs, the change is applied, and the
// statement runs again; the second run must plan and answer exactly as an
// engine that has never seen the statement does. (Buckets cannot be
// dropped, so a bucket's creation is the one keyspace row.)
func TestPlanCacheInvalidation(t *testing.T) {
	const stmt = "SELECT n FROM `default` WHERE n >= 30 ORDER BY n"
	invalidations := metrics.Default.Counter("couchgo_query_plan_cache_invalidations_total")
	for _, row := range []struct {
		name   string
		setup  []string
		change func(t *testing.T, c *Cluster)
		before string
		after  string
	}{
		{"CREATE INDEX", nil, func(t *testing.T, c *Cluster) {
			mustQuery(t, c, "CREATE INDEX byN ON `default`(n)", nil)
		}, "PrimaryScan #primary", "IndexScan byN"},
		{"DROP INDEX", []string{"CREATE INDEX byN ON `default`(n)"}, func(t *testing.T, c *Cluster) {
			mustQuery(t, c, "DROP INDEX `default`.byN", nil)
		}, "IndexScan byN", "PrimaryScan #primary"},
		{"build of a deferred index", []string{"CREATE INDEX byN ON `default`(n) WITH {\"defer_build\": true}"}, func(t *testing.T, c *Cluster) {
			if err := (&clusterStore{c}).BuildIndex("default", "byN"); err != nil {
				t.Fatal(err)
			}
		}, "PrimaryScan #primary", "IndexScan byN"},
		{"index created through the API", nil, func(t *testing.T, c *Cluster) {
			if err := c.CreateIndexStmt(parseCreateIndex(t, "CREATE INDEX byN ON `default`(n)")); err != nil {
				t.Fatal(err)
			}
		}, "PrimaryScan #primary", "IndexScan byN"},
		{"index dropped through the API", []string{"CREATE INDEX byN ON `default`(n)"}, func(t *testing.T, c *Cluster) {
			if err := c.DropIndexByName("default", "byN"); err != nil {
				t.Fatal(err)
			}
		}, "IndexScan byN", "PrimaryScan #primary"},
		{"view-backed index defined", nil, func(t *testing.T, c *Cluster) {
			mustQuery(t, c, "CREATE INDEX viewN ON `default`(n) USING VIEW", nil)
		}, "PrimaryScan #primary", "IndexScan viewN"},
		{"view-backed index dropped", []string{"CREATE INDEX viewN ON `default`(n) USING VIEW"}, func(t *testing.T, c *Cluster) {
			mustQuery(t, c, "DROP INDEX `default`.viewN", nil)
		}, "IndexScan viewN", "PrimaryScan #primary"},
	} {
		t.Run(row.name, func(t *testing.T) {
			c := planCacheCluster(t)
			for _, ddl := range row.setup {
				mustQuery(t, c, ddl, nil)
			}
			for i := 0; i < 2; i++ { // the second run is served from the cache
				if got := accessPath(mustQuery(t, c, "EXPLAIN "+stmt, nil)); got != row.before {
					t.Fatalf("before: %s, want %s", got, row.before)
				}
				mustQuery(t, c, stmt, nil)
			}
			stale := invalidations.Value()
			row.change(t, c)
			explain, rows := mustQuery(t, c, "EXPLAIN "+stmt, nil), mustQuery(t, c, stmt, nil)
			if got := invalidations.Value() - stale; got != 2 {
				t.Errorf("%d cached plans were made again, want 2 (the statement and its EXPLAIN)", got)
			}
			if got := accessPath(explain); got != row.after {
				t.Errorf("after: %s, want %s", got, row.after)
			}
			cold := query.NewEngine(&clusterStore{c})
			for _, pair := range []struct {
				stmt string
				got  []any
			}{{"EXPLAIN " + stmt, explain}, {stmt, rows}} {
				want, err := cold.Execute(pair.stmt, executor.Options{Consistency: executor.RequestPlus})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(pair.got, want.Rows) {
					t.Errorf("%s\ncached engine: %v\n  cold engine: %v", pair.stmt, pair.got, want.Rows)
				}
			}
			if len(rows) != 10 {
				t.Errorf("%d rows, want 10", len(rows))
			}
		})
	}
	t.Run("bucket created", func(t *testing.T) {
		c := planCacheCluster(t)
		const other = "SELECT COUNT(*) AS c FROM other"
		for i := 0; i < 2; i++ { // a statement that cannot be planned is not cached
			if _, err := c.Query(other, executor.Options{}); !errors.Is(err, planner.ErrNoSuchKeyspace) {
				t.Fatalf("before the bucket exists: %v", err)
			}
		}
		if err := c.CreateBucket("other", BucketOptions{}); err != nil {
			t.Fatal(err)
		}
		mustQuery(t, c, "CREATE PRIMARY INDEX ON other", nil)
		if rows := mustQuery(t, c, other, nil); !reflect.DeepEqual(rows, []any{map[string]any{"c": 0.0}}) {
			t.Errorf("after: %v", rows)
		}
	})
}

// TestPreparedPlanSharedUnderRace: eight clients share three prepared
// plans (a covered scan, a key join under an UNNEST, a GROUP BY), each
// with its own parameters, while a ninth creates and drops the index all
// three prefer. Every answer must be the one a quiet cluster gives, and
// no client may see an index vanish under its scan. Run it under -race.
func TestPreparedPlanSharedUnderRace(t *testing.T) {
	c := planCacheCluster(t)
	stmts := []string{
		"SELECT n FROM `default` WHERE n >= $1 ORDER BY n LIMIT 7",
		"SELECT o.n, cu.city, tag FROM `default` o JOIN `default` cu ON KEYS o.cust UNNEST o.tags AS tag WHERE o.n >= $1 ORDER BY o.n, tag",
		"SELECT cust, COUNT(*) AS c, SUM(n) AS s FROM `default` WHERE n >= $1 GROUP BY cust ORDER BY cust",
	}
	const bounds = 8
	want := map[string][]any{}
	key := func(s, b int) string { return fmt.Sprint(s, "/", b) }
	for s, stmt := range stmts {
		for b := 0; b < bounds; b++ {
			want[key(s, b)] = mustQuery(t, c, stmt, map[string]any{"1": float64(4 * b)})
		}
	}
	stop := make(chan struct{})
	var churn, clients sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, ddl := range []string{"CREATE INDEX byN ON `default`(n)", "DROP INDEX `default`.byN"} {
				if _, err := c.Query(ddl, executor.Options{}); err != nil {
					t.Error(ddl, err)
					return
				}
			}
		}
	}()
	for g := 0; g < 8; g++ {
		clients.Add(1)
		go func(g int) {
			defer clients.Done()
			for i := 0; i < 600; i++ {
				s, b := (g+i)%len(stmts), (g*7+i)%bounds
				res, err := c.Query(stmts[s], executor.Options{Params: map[string]any{"1": float64(4 * b)}})
				if err != nil {
					t.Error(stmts[s], err)
					return
				}
				if !reflect.DeepEqual(res.Rows, want[key(s, b)]) {
					t.Errorf("%s $1=%d\n got %v\nwant %v", stmts[s], 4*b, res.Rows, want[key(s, b)])
					return
				}
			}
		}(g)
	}
	clients.Wait()
	close(stop)
	churn.Wait()
}
