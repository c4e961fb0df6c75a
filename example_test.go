package couchgo_test

import (
	"encoding/json"
	"fmt"
	"log"
	"time"

	"couchgo"
)

// Example shows the three access paths of paper §3.1 on one bucket:
// key-value, view, and N1QL, plus full-text search (§6.1.3).
func Example() {
	cluster, err := couchgo.NewCluster(couchgo.ClusterOptions{NumVBuckets: 16})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()
	cluster.AddNode("node0", couchgo.AllServices)
	cluster.CreateBucket("default", couchgo.BucketOptions{})
	bucket, _ := cluster.Bucket("default")

	// Key-value.
	bucket.Upsert("borkar123", map[string]any{"name": "Dipti", "email": "dipti@couchbase.com"})
	doc, _ := bucket.Get("borkar123")
	fmt.Println("kv:", string(doc.Content))

	// View.
	bucket.DefineView("profile", couchgo.ViewDefinition{Key: "doc.name", Value: "doc.email"})
	rows, _ := bucket.ViewQuery("profile", couchgo.ViewQueryOptions{Stale: couchgo.StaleFalse})
	fmt.Println("view:", rows[0].Key, "->", rows[0].Value)

	// N1QL.
	cluster.Query("CREATE PRIMARY INDEX ON `default`")
	res, _ := cluster.QueryWithOptions(
		`SELECT email FROM `+"`default`"+` WHERE name = "Dipti"`,
		couchgo.QueryOptions{Consistency: couchgo.RequestPlus})
	fmt.Println("n1ql:", res.Rows[0].(map[string]any)["email"])

	// Full-text search.
	bucket.CreateSearchIndex("people", "name")
	hits, _ := bucket.Search("people", couchgo.SearchTerm, "dipti", 10, true)
	fmt.Println("fts:", hits[0].ID, "score", hits[0].Score)

	// Output:
	// kv: {"email":"dipti@couchbase.com","name":"Dipti"}
	// view: Dipti -> dipti@couchbase.com
	// n1ql: dipti@couchbase.com
	// fts: borkar123 score 1
}

// ExampleBucket_Write demonstrates per-mutation durability (§2.3.2).
func ExampleBucket_Write() {
	cluster, _ := couchgo.NewCluster(couchgo.ClusterOptions{NumVBuckets: 16})
	defer cluster.Close()
	cluster.AddNode("node0", couchgo.AllServices)
	cluster.AddNode("node1", couchgo.AllServices)
	cluster.CreateBucket("default", couchgo.BucketOptions{NumReplicas: 1})
	bucket, _ := cluster.Bucket("default")

	_, err := bucket.Write("important", map[string]any{"v": 1}, couchgo.WriteOptions{
		Durability: couchgo.DurabilityOptions{ReplicateTo: 1, PersistTo: true},
	})
	fmt.Println("durable write:", err == nil)
	// Output:
	// durable write: true
}

// ExampleBucket_Increment shows the atomic sub-document counter.
func ExampleBucket_Increment() {
	cluster, _ := couchgo.NewCluster(couchgo.ClusterOptions{NumVBuckets: 16})
	defer cluster.Close()
	cluster.AddNode("node0", couchgo.AllServices)
	cluster.CreateBucket("default", couchgo.BucketOptions{})
	bucket, _ := cluster.Bucket("default")

	bucket.Upsert("stats", map[string]any{"hits": 0})
	bucket.Increment("stats", "hits", 1)
	n, _ := bucket.Increment("stats", "hits", 1)
	fmt.Println("hits:", n)
	// Output:
	// hits: 2
}

// Example_analytics runs operational analytics (§6.2): a DCP-fed shadow
// dataset executes the general joins N1QL forbids, isolated from the
// front-end OLTP workload.
func Example_analytics() {
	cluster, err := couchgo.NewCluster(couchgo.ClusterOptions{NumVBuckets: 64})
	must(err)
	defer cluster.Close()
	// MDS topology: OLTP nodes vs a dedicated analytics node.
	must(cluster.AddNode("oltp0", couchgo.DataService|couchgo.QueryService|couchgo.IndexService))
	must(cluster.AddNode("oltp1", couchgo.DataService|couchgo.QueryService|couchgo.IndexService))
	must(cluster.AddNode("analytics0", couchgo.AnalyticsService))
	must(cluster.CreateBucket("commerce", couchgo.BucketOptions{}))
	bucket, err := cluster.Bucket("commerce")
	must(err)

	// The operational workload: customers and orders in one bucket.
	regions := []string{"west", "east", "emea"}
	for i := 0; i < 9; i++ {
		must2(bucket.Upsert(fmt.Sprintf("customer::%d", i), map[string]any{
			"type": "customer", "cid": i, "region": regions[i%3],
		}))
	}
	for i := 0; i < 60; i++ {
		must2(bucket.Upsert(fmt.Sprintf("order::%d", i), map[string]any{
			"type": "order", "customer": i % 9, "total": (i%7 + 1) * 25,
		}))
	}

	// The general join is rejected on the operational path (§3.2.4)...
	_, err = cluster.Query(`SELECT * FROM commerce o JOIN commerce c ON o.customer = c.cid`)
	fmt.Println("N1QL query service says:", err)

	// ...but the analytics service runs it, over its DCP-fed shadow.
	must(cluster.EnableAnalytics("commerce"))
	rows, err := cluster.AnalyticsQuery("commerce", `
		SELECT c.region, COUNT(*) AS orders, SUM(o.total) AS revenue, AVG(o.total) AS avg_order
		FROM commerce o
		JOIN commerce c ON o.customer = c.cid
		WHERE o.type = "order" AND c.type = "customer"
		GROUP BY c.region
		ORDER BY c.region`,
		couchgo.AnalyticsOptions{Consistent: true})
	must(err)
	fmt.Println("revenue by region (general hash join + grouping on the analytics shadow):")
	for _, r := range rows {
		m := r.(map[string]any)
		fmt.Printf("  %-5v orders=%-3v revenue=%-6v avg=%.1f\n", m["region"], m["orders"], m["revenue"], m["avg_order"])
	}

	// Insight feeds back "almost instantly": a fresh write is visible
	// to a consistent analytics query right away.
	must2(bucket.Upsert("order::new", map[string]any{"type": "order", "customer": 0, "total": 10000}))
	rows, err = cluster.AnalyticsQuery("commerce",
		`SELECT SUM(o.total) AS total FROM commerce o WHERE o.type = "order"`,
		couchgo.AnalyticsOptions{Consistent: true})
	must(err)
	fmt.Println("total revenue including the just-written order:", rows[0].(map[string]any)["total"])

	// Output:
	// N1QL query service says: query: general (non-key) joins are not supported by N1QL (§3.2.4); use ON KEYS, or run the query on the analytics service
	// revenue by region (general hash join + grouping on the analytics shadow):
	//   east  orders=20  revenue=1950   avg=97.5
	//   emea  orders=20  revenue=1925   avg=96.2
	//   west  orders=20  revenue=1975   avg=98.8
	// total revenue including the just-written order: 15850
}

// Example_catalog is the paper's second motivating workload, catalog
// and SKU management (§1): two document types in one bucket, queried
// with USE KEYS (§3.2.3), the paper's NEST and UNNEST examples, a
// selective index (§3.3.4), an array index behind ANY ... SATISFIES
// (§6.1.2) and a covering index (§5.1.2) shown via EXPLAIN.
func Example_catalog() {
	cluster, err := couchgo.NewCluster(couchgo.ClusterOptions{NumVBuckets: 64})
	must(err)
	defer cluster.Close()
	must(cluster.AddNode("node0", couchgo.AllServices))
	must(cluster.AddNode("node1", couchgo.AllServices))
	must(cluster.CreateBucket("catalog", couchgo.BucketOptions{}))
	bucket, err := cluster.Bucket("catalog")
	must(err)

	// Two document types in one bucket, as in the paper's
	// profiles_orders example.
	must2(bucket.Upsert("borkar123", map[string]any{
		"doc_type":         "user_profile",
		"personal_details": map[string]any{"name": "Dipti Borkar"},
		"shipped_order_history": []any{
			map[string]any{"order_id": "order::1001"},
			map[string]any{"order_id": "order::1002"},
		},
	}))
	must2(bucket.Upsert("order::1001", map[string]any{
		"doc_type": "order", "total": 129.99,
		"items": []any{map[string]any{"sku": "couch-1", "qty": 1}},
	}))
	must2(bucket.Upsert("order::1002", map[string]any{
		"doc_type": "order", "total": 24.50,
		"items": []any{map[string]any{"sku": "base-2", "qty": 3}},
	}))
	products := []struct {
		key        string
		name       string
		price      float64
		categories []any
	}{
		{"product::couch-1", "Memory-First Couch", 899, []any{"furniture", "living-room"}},
		{"product::base-2", "Data Base", 49, []any{"furniture", "office"}},
		{"product::lamp-3", "Query Lamp", 25, []any{"lighting", "office"}},
	}
	for _, p := range products {
		must2(bucket.Upsert(p.key, map[string]any{
			"doc_type": "product", "name": p.name, "price": p.price, "categories": p.categories,
		}))
	}
	must2(cluster.Query("CREATE PRIMARY INDEX ON catalog"))
	query := func(stmt string) *couchgo.QueryResult {
		res, err := cluster.QueryWithOptions(stmt, couchgo.QueryOptions{Consistency: couchgo.RequestPlus})
		must(err)
		return res
	}
	jsonOf := func(v any) string { b, _ := json.Marshal(v); return string(b) }
	firstOp := func(res *couchgo.QueryResult) map[string]any {
		return res.Rows[0].(map[string]any)["operators"].([]any)[0].(map[string]any)
	}

	// 1. USE KEYS: key-value retrieval performance from the query path.
	res := query(`SELECT personal_details FROM catalog USE KEYS "borkar123"`)
	fmt.Println("USE KEYS:", jsonOf(res.Rows[0]))

	// 2. The paper's NEST example (§3.2.3): a profile with its orders
	// embedded as an array.
	res = query(`
		SELECT PO.personal_details, orders
		FROM catalog PO
		USE KEYS 'borkar123'
		NEST catalog AS orders
		ON KEYS ARRAY s.order_id FOR s IN PO.shipped_order_history END`)
	fmt.Println("NEST:", jsonOf(res.Rows[0]))

	// 3. The paper's UNNEST example: distinct categories in use.
	res = query(`
		SELECT DISTINCT (categories) FROM catalog
		UNNEST catalog.categories AS categories
		ORDER BY categories`)
	fmt.Print("UNNEST: categories in use:")
	for _, r := range res.Rows {
		fmt.Print(" ", r.(map[string]any)["categories"])
	}
	fmt.Println()

	// 4. Selective index (§3.3.4): only premium products are indexed.
	must2(cluster.Query(`CREATE INDEX premium ON catalog(price) WHERE price > 100`))
	res = query(`SELECT name, price FROM catalog WHERE price > 100 ORDER BY price`)
	fmt.Printf("partial index: %d premium product(s): %s\n", len(res.Rows), jsonOf(res.Rows))

	// 5. Array index (§6.1.2) accelerating an ANY predicate.
	must2(cluster.Query(`CREATE INDEX byCategory ON catalog(ARRAY c FOR c IN categories END)`))
	res = query(`
		SELECT name FROM catalog
		WHERE ANY c IN categories SATISFIES c = "office" END
		ORDER BY name`)
	fmt.Println("array index: office products:", jsonOf(res.Rows))
	explain := query(`EXPLAIN SELECT name FROM catalog WHERE ANY c IN categories SATISFIES c = "office" END`)
	fmt.Println("  plan uses:", firstOp(explain)["index"])

	// 6. Covering index (§5.1.2): the query is answered from the index
	// alone — EXPLAIN shows no Fetch operator.
	must2(cluster.Query(`CREATE INDEX names ON catalog(name)`))
	explain = query(`EXPLAIN SELECT name FROM catalog WHERE name > "A"`)
	fmt.Println("covering index:", firstOp(explain)["covering"])

	// Output:
	// USE KEYS: {"personal_details":{"name":"Dipti Borkar"}}
	// NEST: {"orders":[{"doc_type":"order","items":[{"qty":1,"sku":"couch-1"}],"total":129.99},{"doc_type":"order","items":[{"qty":3,"sku":"base-2"}],"total":24.5}],"personal_details":{"name":"Dipti Borkar"}}
	// UNNEST: categories in use: furniture lighting living-room office
	// partial index: 1 premium product(s): [{"name":"Memory-First Couch","price":899}]
	// array index: office products: [{"name":"Data Base"},{"name":"Query Lamp"}]
	//   plan uses: byCategory
	// covering index: true
}

// Example_rebalance scales a cluster out with rebalance under live
// reads, crashes the orchestrator, and lets automatic failover
// (orchestrator re-election included) keep every document readable
// (§4.1.1, §4.3.1).
func Example_rebalance() {
	cluster, err := couchgo.NewCluster(couchgo.ClusterOptions{
		NumVBuckets:     64,
		FailoverTimeout: 300 * time.Millisecond, // auto-failover
	})
	must(err)
	defer cluster.Close()
	must(cluster.AddNode("node0", couchgo.AllServices))
	must(cluster.AddNode("node1", couchgo.AllServices))
	must(cluster.CreateBucket("default", couchgo.BucketOptions{NumReplicas: 1}))
	bucket, err := cluster.Bucket("default")
	must(err)

	// Load data with replication durability (so a node crash cannot
	// lose acknowledged writes).
	const docs = 500
	for i := 0; i < docs; i++ {
		must2(bucket.Write(fmt.Sprintf("doc::%04d", i), map[string]any{"i": i},
			couchgo.WriteOptions{Durability: couchgo.DurabilityOptions{ReplicateTo: 1}}))
	}
	fmt.Printf("loaded %d documents on 2 nodes; orchestrator=%s\n", docs, cluster.Orchestrator())

	// Keep a client reading while the topology changes.
	stop, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			bucket.Get(fmt.Sprintf("doc::%04d", i%docs))
		}
	}()

	// Scale out: add a third node and rebalance.
	must(cluster.AddNode("node2", couchgo.AllServices))
	must(cluster.Rebalance())
	fmt.Println("rebalanced onto 3 nodes")

	// Crash the orchestrator. The heartbeat detector fails it over and
	// the next node takes over as orchestrator; wait for the failover to
	// restore full availability.
	must(cluster.Kill("node0"))
	waitUntil(func() bool { return cluster.Orchestrator() == "node1" })
	waitUntil(func() bool {
		for i := 0; i < docs; i += 97 {
			if _, err := bucket.Get(fmt.Sprintf("doc::%04d", i)); err != nil {
				return false
			}
		}
		return true
	})
	fmt.Printf("node0 crashed; auto-failover promoted replicas; orchestrator=%s\n", cluster.Orchestrator())

	// Rebalance the survivors and verify every document.
	must(cluster.Rebalance())
	close(stop)
	<-stopped
	readable := 0
	for i := 0; i < docs; i++ {
		if _, err := bucket.Get(fmt.Sprintf("doc::%04d", i)); err == nil {
			readable++
		}
	}
	fmt.Printf("after failover + rebalance: %d/%d documents readable\n", readable, docs)

	// Output:
	// loaded 500 documents on 2 nodes; orchestrator=node0
	// rebalanced onto 3 nodes
	// node0 crashed; auto-failover promoted replicas; orchestrator=node1
	// after failover + rebalance: 500/500 documents readable
}

// Example_userProfile is the paper's canonical low-latency OLTP
// workload, a user-profile store (§1), with the concurrency and
// durability toolbox of §3.1.1 and §2.3.2: CAS optimistic locking with
// its read-modify-retry loop, per-mutation durability, hard locks, and
// TTL-based session documents.
func Example_userProfile() {
	type Profile struct {
		Name       string `json:"name"`
		Email      string `json:"email"`
		LoginCount int    `json:"login_count"`
	}
	cluster, err := couchgo.NewCluster(couchgo.ClusterOptions{NumVBuckets: 64})
	must(err)
	defer cluster.Close()
	for i := 0; i < 3; i++ {
		must(cluster.AddNode(fmt.Sprintf("node%d", i), couchgo.AllServices))
	}
	must(cluster.CreateBucket("profiles", couchgo.BucketOptions{NumReplicas: 1}))
	bucket, err := cluster.Bucket("profiles")
	must(err)

	// Create a profile with replication durability: the write is
	// acknowledged only after one replica holds it in memory.
	must2(bucket.Write("user::alice", Profile{Name: "Alice", Email: "alice@example.com"},
		couchgo.WriteOptions{Durability: couchgo.DurabilityOptions{ReplicateTo: 1}}))
	fmt.Println("created user::alice (replicated to 1)")

	// CAS retry loop: two "application servers" bump the login counter
	// concurrently; optimistic locking resolves the race.
	done := make(chan bool)
	bump := func() {
		for {
			doc, err := bucket.Get("user::alice")
			must(err)
			var p Profile
			must(doc.Decode(&p))
			p.LoginCount++
			_, err = bucket.Write("user::alice", p, couchgo.WriteOptions{CAS: doc.CAS})
			if err == couchgo.ErrCASMismatch {
				continue // someone else won; re-read and retry
			}
			must(err)
			done <- true
			return
		}
	}
	go bump()
	go bump()
	<-done
	<-done
	doc, err := bucket.Get("user::alice")
	must(err)
	var p Profile
	must(doc.Decode(&p))
	fmt.Println("login_count after two concurrent bumps:", p.LoginCount)

	// Hard lock for a critical update (the stricter option of §3.1.1).
	locked, err := bucket.GetAndLock("user::alice", 15)
	must(err)
	_, err = bucket.Upsert("user::alice", Profile{})
	fmt.Println("write while hard-locked:", err == couchgo.ErrLocked)
	must(locked.Decode(&p))
	p.Email = "alice@newdomain.example"
	must2(bucket.Write("user::alice", p, couchgo.WriteOptions{CAS: locked.CAS}))
	fmt.Println("locked update applied (lock released by CAS write)")

	// Session document with a TTL.
	must2(bucket.Write("session::alice", map[string]any{"token": "xyz"},
		couchgo.WriteOptions{Expiry: time.Now().Unix() + 1}))
	must2(bucket.Get("session::alice"))
	fmt.Println("session created with 1s TTL")
	time.Sleep(1100 * time.Millisecond)
	_, err = bucket.Get("session::alice")
	fmt.Println("session expired:", err == couchgo.ErrKeyNotFound)

	// The memory-first read path: a batch of gets, each served from the
	// cache.
	for i := 0; i < 2000; i++ {
		must2(bucket.Get("user::alice"))
	}

	// Output:
	// created user::alice (replicated to 1)
	// login_count after two concurrent bumps: 2
	// write while hard-locked: true
	// locked update applied (lock released by CAS write)
	// session created with 1s TTL
	// session expired: true
}

// Example_xdcr runs cross-datacenter replication (§4.6) between two
// clusters of different topologies: bidirectional, filtered, and
// converging under the deterministic conflict resolution of §4.6.1.
func Example_xdcr() {
	// Two "datacenters" with different node counts — XDCR is cluster
	// topology aware.
	newDC := func(name string, nodes int) *couchgo.Cluster {
		c, err := couchgo.NewCluster(couchgo.ClusterOptions{NumVBuckets: 32})
		must(err)
		for i := 0; i < nodes; i++ {
			must(c.AddNode(fmt.Sprintf("%s-n%d", name, i), couchgo.AllServices))
		}
		must(c.CreateBucket("default", couchgo.BucketOptions{}))
		return c
	}
	west := newDC("west", 2)
	defer west.Close()
	east := newDC("east", 3)
	defer east.Close()
	wb, _ := west.Bucket("default")
	eb, _ := east.Bucket("default")

	// Bidirectional replication, filtering only user documents.
	w2e, err := west.ReplicateTo(east, "default", "default", couchgo.XDCROptions{FilterExpr: "^user::"})
	must(err)
	defer w2e.Stop()
	e2w, err := east.ReplicateTo(west, "default", "default", couchgo.XDCROptions{FilterExpr: "^user::"})
	must(err)
	defer e2w.Stop()

	// West writes a user and a session; only the user replicates.
	must2(wb.Upsert("user::1", map[string]any{"home": "west"}))
	must2(wb.Upsert("session::1", map[string]any{"token": "local-only"}))
	waitUntil(func() bool { _, err := eb.Get("user::1"); return err == nil })
	fmt.Println("user::1 replicated west -> east")
	_, err = eb.Get("session::1")
	fmt.Println("session::1 filtered out (doc-ID regex):", err == couchgo.ErrKeyNotFound)

	// Concurrent conflicting updates: west updates twice, east once.
	// "The document with the most updates is considered the winner."
	for i := 0; i < 2; i++ {
		must2(wb.Upsert("user::2", map[string]any{"winner": "west", "rev": i + 1}))
	}
	must2(eb.Upsert("user::2", map[string]any{"winner": "east", "rev": 1}))
	waitUntil(func() bool {
		w, err1 := wb.Get("user::2")
		e, err2 := eb.Get("user::2")
		return err1 == nil && err2 == nil && string(w.Content) == string(e.Content)
	})
	fmt.Println("conflict resolved identically on both sides")
	w2e.Stats() // sent, applied, rejected and filtered mutations

	// Output:
	// user::1 replicated west -> east
	// session::1 filtered out (doc-ID regex): true
	// conflict resolved identically on both sides
}

// must stops an example at its first error.
func must(err error) {
	if err != nil {
		log.Panic(err)
	}
}

func must2[T any](_ T, err error) { must(err) }

// waitUntil polls cond for up to 10 s.
func waitUntil(cond func() bool) {
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			log.Panic("timed out")
		}
	}
}
