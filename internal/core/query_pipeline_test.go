package core

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"couchgo/internal/cmap"
	"couchgo/internal/executor"
	"couchgo/internal/gsi"
	"couchgo/internal/n1ql"
)

// workloadE is YCSB workload E's scan, the statement couchbench's
// lib.query-e runs.
const workloadE = "SELECT meta().id AS id FROM `default` WHERE meta().id >= $1 LIMIT $2"

// workloadECluster loads n documents under a primary index and waits
// for the index to hold them all.
func workloadECluster(tb testing.TB, n int) *Cluster {
	tb.Helper()
	c, err := NewCluster(Config{Dir: tb.TempDir(), NumVBuckets: 16})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	if _, err := c.AddNode("node0", cmap.AllServices); err != nil {
		tb.Fatal(err)
	}
	if err := c.CreateBucket("default", BucketOptions{}); err != nil {
		tb.Fatal(err)
	}
	cl, err := c.OpenBucket("default")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := c.Query("CREATE PRIMARY INDEX ON `default`", executor.Options{}); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := cl.Set(context.Background(), fmt.Sprintf("user%06d", i), []byte(`{"field0": "v"}`), 0); err != nil {
			tb.Fatal(err)
		}
	}
	res, err := c.Query("SELECT COUNT(*) AS n FROM `default`", executor.Options{Consistency: executor.RequestPlus})
	if err != nil || res.Rows[0].(map[string]any)["n"] != float64(n) {
		tb.Fatalf("index holds %v of %d documents: %v", res, n, err)
	}
	return c
}

func workloadEParams(start, limit int) map[string]any {
	return map[string]any{"1": fmt.Sprintf("user%06d", start), "2": float64(limit)}
}

// TestWorkloadEExaminesOnlyLimit gates the demand-driven scan: a range
// query with a LIMIT reads as many index entries as it returns rows,
// though its WHERE survives planning as a residual filter.
func TestWorkloadEExaminesOnlyLimit(t *testing.T) {
	const n = 20000
	c := workloadECluster(t, n)
	for _, tc := range []struct{ start, limit, rows int }{
		{5000, 1, 1},
		{5000, 50, 50},
		{12345, 100, 100},
		{n - 10, 50, 10},
		{n - 10, 10, 10},
	} {
		prof := executor.NewProfile()
		res, err := c.Query(workloadE, executor.Options{Params: workloadEParams(tc.start, tc.limit), Prof: prof})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != tc.rows {
			t.Errorf("start %d LIMIT %d: %d rows, want %d", tc.start, tc.limit, len(res.Rows), tc.rows)
		}
		if got, want := res.Rows[0].(map[string]any)["id"], fmt.Sprintf("user%06d", tc.start); got != want {
			t.Errorf("start %d: first row %v, want %s", tc.start, got, want)
		}
		examined := -1
		for _, ph := range res.Profile {
			if ph.Operator == "scan" {
				examined = ph.Items
			}
			if ph.Operator == "fetch" {
				t.Errorf("covering plan fetched: %+v", res.Profile)
			}
		}
		if examined < tc.rows || examined > tc.limit {
			t.Errorf("start %d LIMIT %d: scan examined %d entries for %d rows", tc.start, tc.limit, examined, tc.rows)
		}
	}
}

// pointLookup is the query at the other end from workload E: no LIMIT,
// so the executor asks the index for a full page of 1024 entries, and a
// span that holds one.
const pointLookup = "SELECT meta().id AS id FROM `default` WHERE meta().id = $1"

// TestWorkloadEAllocBudget bounds what one query allocates, in objects
// and in bytes, each as c0 + c1·rows: workload E at LIMIT 1, 50 and 100
// (the span holds more than LIMIT entries, so rows = LIMIT) and a point
// lookup without a LIMIT, where what is allocated must follow the one
// row found and not the 1024 entries asked for (a page with room for
// 1024 is 57 KB). Measured at this commit: 25, 123 and 223 allocations
// and 1.6, 28.6 and 55.7 KB for workload E, 27 and 1.6 KB for the point
// lookup, so about 23 allocations per statement (the span, the pipeline,
// the index's page, which is the scan's buffer and not a copy of it,
// one slab of slots and one of rows per batch; the plan comes from the
// cache) and 2 per row (the projected object), and about 1 KB per
// statement and 545 B per row (336 B of it the projected object, a Go
// map's first group of 8 slots; 56 B the page's entry). The count
// budget allows half as much again per statement and two more per row,
// the boxed document ID a secondary covering index adds; the byte
// budget allows a tenth more, and is there because a count hides size:
// when the index grew its page by doubling the count read 131 at LIMIT
// 50, and those 8 allocations were 5 KB of 33.6. Before rows were slots
// and plans were cached the count read 119, 517 and 918.
func TestWorkloadEAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("loads 20 000 documents")
	}
	c := workloadECluster(t, 20000)
	for _, tc := range []struct {
		name, stmt string
		params     map[string]any
		rows       int
	}{
		{"LIMIT 1", workloadE, workloadEParams(5000, 1), 1},
		{"LIMIT 50", workloadE, workloadEParams(5000, 50), 50},
		{"LIMIT 100", workloadE, workloadEParams(5000, 100), 100},
		{"point lookup", pointLookup, map[string]any{"1": "user005000"}, 1},
	} {
		opts := executor.Options{Params: tc.params}
		query := func() {
			if res, err := c.Query(tc.stmt, opts); err != nil || len(res.Rows) != tc.rows {
				t.Fatalf("%s: %v %v", tc.name, res, err)
			}
		}
		n := testing.AllocsPerRun(50, query)
		if budget := float64(39 + 4*tc.rows); n > budget {
			t.Errorf("%s: %.0f allocations per query, budget %.0f", tc.name, n, budget)
		} else {
			t.Logf("%s: %.0f allocations per query (budget %.0f)", tc.name, n, budget)
		}
		// TotalAlloc is the process's: the least of three rounds, since
		// what the cluster's background goroutines (feeds, flushers)
		// allocate meanwhile is only ever added.
		const rounds, runs = 3, 200
		b := ^uint64(0)
		for r := 0; r < rounds; r++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				query()
			}
			runtime.ReadMemStats(&after)
			b = min(b, (after.TotalAlloc-before.TotalAlloc)/runs)
		}
		if budget := uint64(2400 + 590*tc.rows); b > budget {
			t.Errorf("%s: %d bytes allocated per query, budget %d", tc.name, b, budget)
		} else {
			t.Logf("%s: %d bytes allocated per query (budget %d)", tc.name, b, budget)
		}
	}
}

// BenchmarkWorkloadEQuery is one workload E scan of 50 rows on every
// benchmark goroutine: the allocs/op column of `make bench-smoke`, and
// with -cpu 1,2 and -cpuprofile, -memprofile or -mutexprofile the
// attribution of the query path (who allocates most; whose unlock the
// second client waited on).
func BenchmarkWorkloadEQuery(b *testing.B) {
	c := workloadECluster(b, 20000)
	opts := executor.Options{Params: workloadEParams(5000, 50)}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if res, err := c.Query(workloadE, opts); err != nil || len(res.Rows) != 50 {
				b.Error(res, err)
				return
			}
		}
	})
}

// indexKinds are the two placements of a secondary index on `n`: GSI
// partitions on the index service, and a view on every data node.
var indexKinds = []struct {
	name, ddl string
	using     n1ql.IndexUsing
}{
	{"GSI", "CREATE INDEX byN ON `default`(n) WITH {\"num_partitions\": 4}", n1ql.UsingGSI},
	{"VIEW", "CREATE INDEX byN ON `default`(n) USING VIEW", n1ql.UsingView},
}

// TestPartitionedIndexPagesLikeOneScan runs LIMIT/OFFSET windows over a
// field indexed first as a 4-partition GSI index, then USING VIEW on a
// 3-node cluster. Its few distinct keys are shared by many documents,
// so equal keys straddle page edges, partition edges and node edges
// alike; every window must be that slice of the unlimited result, and
// both kinds must answer with identical rows.
func TestPartitionedIndexPagesLikeOneScan(t *testing.T) {
	c, cl := newTestCluster(t, 3, 0)
	const docs = 300
	for i := 0; i < docs; i++ {
		if _, err := cl.Set(context.Background(), fmt.Sprintf("d%03d", i), []byte(fmt.Sprintf(`{"n": %d, "odd": %t}`, i%5, i%2 == 1)), 0); err != nil {
			t.Fatal(err)
		}
	}
	fresh := executor.Options{Consistency: executor.RequestPlus}
	answers := map[string][]any{}
	for _, kind := range indexKinds {
		if _, err := c.Query(kind.ddl, executor.Options{}); err != nil {
			t.Fatal(err)
		}
		for _, q := range []string{
			"SELECT n, meta().id AS id FROM `default` WHERE n >= 1",                // covering
			"SELECT n, meta().id AS id FROM `default` WHERE n >= 1 AND odd = TRUE", // fetching, half rejected
		} {
			all, err := c.Query(q, fresh)
			if err != nil {
				t.Fatal(err)
			}
			if len(all.Rows) < docs/3 {
				t.Fatalf("%s: %s: %d rows", kind.name, q, len(all.Rows))
			}
			if first, ok := answers[q]; !ok {
				answers[q] = all.Rows
			} else if !reflect.DeepEqual(all.Rows, first) {
				t.Errorf("%s: %s: rows differ from %s's", kind.name, q, indexKinds[0].name)
			}
			for _, w := range []struct{ limit, offset int }{{1, 0}, {7, 0}, {60, 0}, {61, 59}, {13, 118}, {500, 3}} {
				res, err := c.Query(fmt.Sprintf("%s LIMIT %d OFFSET %d", q, w.limit, w.offset), fresh)
				if err != nil {
					t.Fatal(err)
				}
				want := all.Rows[min(w.offset, len(all.Rows)):]
				want = want[:min(w.limit, len(want))]
				if !reflect.DeepEqual(res.Rows, want) {
					t.Errorf("%s: %s LIMIT %d OFFSET %d:\n got %v\nwant %v", kind.name, q, w.limit, w.offset, res.Rows, want)
				}
			}
		}
		if _, err := c.Query("DROP INDEX `default`.byN", executor.Options{}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestIndexPagesAcrossRebalance pages through both index kinds at the
// Datastore seam with a rebalance between two pages. The first page
// alone carries the request_plus vector and must show a write made just
// before it. Pages never exceed Limit, repeat or go backwards whatever
// moves; the entries of vBuckets that did not move all arrive; a moved
// vBucket's entries leave its old node at once, so a view's later pages
// may lack them until the new owner has indexed them, which the next
// request_plus scan waits for.
func TestIndexPagesAcrossRebalance(t *testing.T) {
	for _, kind := range indexKinds {
		t.Run(kind.name, func(t *testing.T) {
			c, cl := newTestCluster(t, 3, 0)
			ctx, store := context.Background(), &clusterStore{c}
			if _, err := c.Query(kind.ddl, executor.Options{}); err != nil {
				t.Fatal(err)
			}
			const docs = 200
			for i := 0; i < docs; i++ {
				if _, err := cl.Set(ctx, fmt.Sprintf("d%03d", i), []byte(fmt.Sprintf(`{"n": %d}`, i%5)), 0); err != nil {
					t.Fatal(err)
				}
			}
			b, _ := c.bucket("default")
			before := b.Map()
			opts := gsi.ScanOptions{Low: []any{1.0}, LowIncl: true, Limit: 7, WaitSeqnos: c.ConsistencyVector("default")}
			var got []gsi.ScanItem
			for pages := 1; ; pages++ {
				page, more, err := store.ScanIndex(ctx, "default", "byN", kind.using, opts)
				if err != nil || len(page) > opts.Limit || more != (len(page) == opts.Limit) {
					t.Fatalf("page %d: %d entries for Limit %d, more %v, %v", pages, len(page), opts.Limit, more, err)
				}
				got = append(got, page...)
				if !more {
					break
				}
				opts.After, opts.WaitSeqnos = &page[len(page)-1], nil
				if pages == 2 {
					if _, err := c.AddNode("node3", cmap.AllServices); err != nil {
						t.Fatal(err)
					}
					if err := c.Rebalance(); err != nil {
						t.Fatal(err)
					}
				}
			}
			after := b.Map()
			seen := map[string]bool{}
			for i, it := range got {
				if i > 0 && bytes.Compare(gsi.TreeKey(got[i-1].SecKey, got[i-1].DocID), gsi.TreeKey(it.SecKey, it.DocID)) >= 0 {
					t.Fatalf("entry %d %v does not follow %v", i, it, got[i-1])
				}
				seen[it.DocID] = true
			}
			moved := 0
			for i := 0; i < docs; i++ {
				id := fmt.Sprintf("d%03d", i)
				vb := cmap.VBucketID(id, before.NumVBuckets)
				if before.Active(vb) != after.Active(vb) {
					moved++
				} else if i%5 >= 1 && !seen[id] {
					t.Errorf("%s, in a vBucket that did not move, is in no page", id)
				}
			}
			if moved == 0 {
				t.Fatal("the rebalance moved no document")
			}
			opts.After, opts.Limit, opts.WaitSeqnos = nil, 0, c.ConsistencyVector("default")
			whole, _, err := store.ScanIndex(ctx, "default", "byN", kind.using, opts)
			if err != nil || len(whole) != docs*4/5 {
				t.Fatalf("request_plus scan after the rebalance: %d entries, want %d: %v", len(whole), docs*4/5, err)
			}
		})
	}
}

// TestViewIndexScanStopsAtLimit is TestWorkloadEExaminesOnlyLimit for a
// view-backed index on three nodes: each node serves a page of at most
// LIMIT entries and their merge is cut to LIMIT, where the whole span
// used to come back.
func TestViewIndexScanStopsAtLimit(t *testing.T) {
	c, cl := newTestCluster(t, 3, 0)
	if _, err := c.Query(indexKinds[1].ddl, executor.Options{}); err != nil {
		t.Fatal(err)
	}
	const docs, nodes = 10000, 3
	for i := 0; i < docs; i++ {
		if _, err := cl.Set(context.Background(), fmt.Sprintf("d%05d", i), []byte(fmt.Sprintf(`{"n": %d}`, i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		"SELECT n FROM `default` WHERE n >= 2500 LIMIT 10",
		"SELECT n, meta().id AS id FROM `default` WHERE n >= 0 ORDER BY n LIMIT 10",
	} {
		prof := executor.NewProfile()
		res, err := c.Query(q, executor.Options{Consistency: executor.RequestPlus, Prof: prof})
		if err != nil || len(res.Rows) != 10 {
			t.Fatalf("%s: %v %v", q, res, err)
		}
		examined := -1
		for _, ph := range res.Profile {
			if ph.Operator == "scan" {
				examined = ph.Items
			}
		}
		if examined < 10 || examined > 10*nodes {
			t.Errorf("%s: scan examined %d of %d entries", q, examined, docs)
		}
	}
}
