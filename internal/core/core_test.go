package core

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"couchgo/internal/cache"
	"couchgo/internal/cmap"
	"couchgo/internal/executor"
	"couchgo/internal/memcproto"
	"couchgo/internal/views"
)

// newTestCluster builds an n-node cluster with every service on every
// node (the appendix's deployment topology), a small vBucket count for
// test speed, and one bucket with the given replica count.
func newTestCluster(t testing.TB, nNodes, nReplicas int) (*Cluster, *Client) {
	t.Helper()
	c, err := NewCluster(Config{
		Dir:         t.TempDir(),
		NumVBuckets: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for i := 0; i < nNodes; i++ {
		if _, err := c.AddNode(cmap.NodeID(fmt.Sprintf("node%d", i)), cmap.AllServices); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateBucket("default", BucketOptions{NumReplicas: nReplicas}); err != nil {
		t.Fatal(err)
	}
	cl, err := c.OpenBucket("default")
	if err != nil {
		t.Fatal(err)
	}
	return c, cl
}

func TestKVAcrossNodes(t *testing.T) {
	_, cl := newTestCluster(t, 4, 1)
	// Keys spread across vBuckets and nodes; all operations route.
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("user::%04d", i)
		if _, err := cl.Set(context.Background(), key, []byte(fmt.Sprintf(`{"n": %d}`, i)), 0); err != nil {
			t.Fatalf("set %s: %v", key, err)
		}
	}
	for i := 0; i < 100; i++ {
		key := fmt.Sprintf("user::%04d", i)
		it, err := cl.Get(context.Background(), key)
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		if string(it.Value) != fmt.Sprintf(`{"n": %d}`, i) {
			t.Fatalf("value for %s: %s", key, it.Value)
		}
	}
	// Data actually spread across the 4 nodes.
	c := cl.cluster
	for _, st := range c.Stats("default") {
		if st.ActiveVBs == 0 {
			t.Errorf("node %s owns no active vbuckets", st.ID)
		}
	}
}

func TestCASAcrossCluster(t *testing.T) {
	_, cl := newTestCluster(t, 2, 0)
	it1, _ := cl.Set(context.Background(), "doc", []byte("v1"), 0)
	it2, _ := cl.Set(context.Background(), "doc", []byte("v2"), 0)
	if _, err := cl.Set(context.Background(), "doc", []byte("v3"), it1.CAS); err != cache.ErrCASMismatch {
		t.Fatalf("stale CAS: %v", err)
	}
	if _, err := cl.Set(context.Background(), "doc", []byte("v3"), it2.CAS); err != nil {
		t.Fatalf("fresh CAS: %v", err)
	}
	if err := cl.Delete(context.Background(), "missing", 0); err != cache.ErrKeyNotFound {
		t.Fatalf("delete missing: %v", err)
	}
}

func TestReplicationAndDurability(t *testing.T) {
	c, cl := newTestCluster(t, 3, 2)
	// ReplicateTo(2): both replicas must ack; the write then exists in
	// three memories.
	it, err := cl.SetWithOptions(context.Background(), "durable", []byte(`{"ok": true}`), 0, 0, 0,
		DurabilityOptions{ReplicateTo: 2, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// PersistTo: flushed on the active.
	if _, err := cl.SetWithOptions(context.Background(), "persisted", []byte("x"), 0, 0, 0,
		DurabilityOptions{PersistTo: true, Timeout: 10 * time.Second}); err != nil {
		t.Fatal(err)
	}
	// Verify the replica copies carry the origin metadata.
	b, _ := c.bucket("default")
	m := b.Map()
	_, vbID := m.NodeForKey("durable")
	for _, rep := range m.Replicas(vbID) {
		node, _ := c.Node(rep)
		meta, err := node.kvVB("default", vbID)
		if err != nil {
			t.Fatal(err)
		}
		res, err := meta.Do(context.Background(), &Op{Code: memcproto.OpGetMeta, Key: "durable"})
		if rit := res.Item; err != nil || rit.CAS != it.CAS || rit.Seqno != it.Seqno {
			t.Fatalf("replica meta on %s: %+v %v (want cas %d)", rep, rit, err, it.CAS)
		}
	}
}

func TestManualFailoverPromotesReplicas(t *testing.T) {
	c, cl := newTestCluster(t, 3, 1)
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("k%03d", i)
		if _, err := cl.SetWithOptions(context.Background(), k, []byte(`{"v": 1}`), 0, 0, 0,
			DurabilityOptions{ReplicateTo: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Kill one node and fail it over.
	if err := c.Kill("node1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Failover("node1"); err != nil {
		t.Fatal(err)
	}
	// Every key is still readable ("applications can continue to access
	// the data without incurring downtime").
	for i := 0; i < 60; i++ {
		k := fmt.Sprintf("k%03d", i)
		it, err := cl.Get(context.Background(), k)
		if err != nil || string(it.Value) != `{"v": 1}` {
			t.Fatalf("get %s after failover: %v", k, err)
		}
	}
	// And writable.
	if _, err := cl.Set(context.Background(), "post-failover", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
	// The failed node owns nothing in the new map.
	b, _ := c.bucket("default")
	m := b.Map()
	if n := len(m.ActiveVBuckets("node1")); n != 0 {
		t.Errorf("failed node still active for %d vbuckets", n)
	}
}

func TestAutoFailoverViaHeartbeat(t *testing.T) {
	c, err := NewCluster(Config{
		Dir:               t.TempDir(),
		NumVBuckets:       8,
		HeartbeatInterval: 10 * time.Millisecond,
		FailoverTimeout:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		c.AddNode(cmap.NodeID(fmt.Sprintf("node%d", i)), cmap.AllServices)
	}
	c.CreateBucket("default", BucketOptions{NumReplicas: 1})
	cl, _ := c.OpenBucket("default")
	for i := 0; i < 30; i++ {
		if _, err := cl.SetWithOptions(context.Background(), fmt.Sprintf("k%d", i), []byte("v"), 0, 0, 0,
			DurabilityOptions{ReplicateTo: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Orchestrator() != "node0" {
		t.Fatalf("orchestrator = %s", c.Orchestrator())
	}
	// Crash the orchestrator itself: a new one takes over and the node
	// is failed over automatically.
	c.Kill("node0")
	deadline := time.Now().Add(5 * time.Second)
	for {
		if c.Orchestrator() == "node1" {
			b, _ := c.bucket("default")
			if len(b.Map().ActiveVBuckets("node0")) == 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("auto-failover did not complete")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for i := 0; i < 30; i++ {
		if _, err := cl.Get(context.Background(), fmt.Sprintf("k%d", i)); err != nil {
			t.Fatalf("get after auto-failover: %v", err)
		}
	}
}

// TestCreateBucketSkipsKilledNode: a node that crashed and has not been
// failed over yet is not one to balance a new bucket over — with
// detection off it would hold its share of the actives until an
// operator stepped in.
func TestCreateBucketSkipsKilledNode(t *testing.T) {
	c, _ := newTestCluster(t, 3, 1)
	if err := c.Kill("node1"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateBucket("late", BucketOptions{NumReplicas: 1}); err != nil {
		t.Fatal(err)
	}
	m, err := c.BucketMap("late")
	if err != nil {
		t.Fatal(err)
	}
	if want := []cmap.NodeID{"node0", "node2"}; !slices.Equal(m.Nodes, want) {
		t.Fatalf("bucket created after Kill(node1) is mapped over %v, want %v", m.Nodes, want)
	}
	cl, err := c.OpenBucket("late")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := cl.Set(context.Background(), fmt.Sprintf("k%d", i), []byte("v"), 0); err != nil {
			t.Fatalf("set k%d: %v", i, err)
		}
	}
}

func TestRebalanceScaleOut(t *testing.T) {
	c, cl := newTestCluster(t, 2, 1)
	for i := 0; i < 80; i++ {
		if _, err := cl.Set(context.Background(), fmt.Sprintf("doc%03d", i), []byte(fmt.Sprintf(`{"i": %d}`, i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Scale out: add a node and rebalance.
	if _, err := c.AddNode("node2", cmap.AllServices); err != nil {
		t.Fatal(err)
	}
	if err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	// The new node owns a fair share.
	b, _ := c.bucket("default")
	m := b.Map()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := len(m.ActiveVBuckets("node2")); n < 4 {
		t.Errorf("new node owns only %d vbuckets", n)
	}
	// All data survived the moves.
	for i := 0; i < 80; i++ {
		k := fmt.Sprintf("doc%03d", i)
		it, err := cl.Get(context.Background(), k)
		if err != nil || string(it.Value) != fmt.Sprintf(`{"i": %d}`, i) {
			t.Fatalf("get %s after rebalance: %v", k, err)
		}
	}
	// Writes continue.
	if _, err := cl.Set(context.Background(), "after-rebalance", []byte("x"), 0); err != nil {
		t.Fatal(err)
	}
}

func TestRebalanceScaleIn(t *testing.T) {
	c, cl := newTestCluster(t, 3, 1)
	for i := 0; i < 50; i++ {
		// ReplicateTo(1): without it, mutations still in flight to the
		// replica die with the killed node — the paper's explicit
		// durability tradeoff (§2.3.2).
		if _, err := cl.SetWithOptions(context.Background(), fmt.Sprintf("doc%02d", i), []byte("v"), 0, 0, 0,
			DurabilityOptions{ReplicateTo: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Graceful removal: fail the node over, then rebalance the rest.
	c.Kill("node2")
	c.Failover("node2")
	if err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	b, _ := c.bucket("default")
	m := b.Map()
	for vb := 0; vb < m.NumVBuckets; vb++ {
		if m.Active(vb) == "node2" {
			t.Fatalf("vb %d still active on removed node", vb)
		}
		if len(m.Replicas(vb)) != 1 {
			t.Fatalf("vb %d replica count %d after rebalance", vb, len(m.Replicas(vb)))
		}
	}
	for i := 0; i < 50; i++ {
		if _, err := cl.Get(context.Background(), fmt.Sprintf("doc%02d", i)); err != nil {
			t.Fatalf("get after scale-in: %v", err)
		}
	}
}

func TestWritesDuringRebalance(t *testing.T) {
	c, cl := newTestCluster(t, 2, 0)
	stop := make(chan struct{})
	errs := make(chan error, 1)
	go func() {
		defer close(errs)
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("live%04d", i)
			if _, err := cl.Set(context.Background(), key, []byte("v"), 0); err != nil {
				errs <- fmt.Errorf("set %s: %w", key, err)
				return
			}
			i++
		}
	}()
	c.AddNode("node2", cmap.AllServices)
	if err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	if err, ok := <-errs; ok && err != nil {
		t.Fatalf("writer failed during rebalance: %v", err)
	}
}

func TestViewsClusterScatterGather(t *testing.T) {
	c, cl := newTestCluster(t, 3, 0)
	if err := c.DefineView("default", views.Definition{
		Name:   "byCity",
		Map:    views.MapSpec{Key: "doc.city", Value: "doc.name"},
		Reduce: "_count",
	}); err != nil {
		t.Fatal(err)
	}
	cities := []string{"SF", "NY", "SF", "LA", "SF", "NY", "SF"}
	for i, city := range cities {
		cl.Set(context.Background(), fmt.Sprintf("u%02d", i), []byte(fmt.Sprintf(`{"city": %q, "name": "user%d"}`, city, i)), 0)
	}
	// stale=false sees everything across all nodes.
	rows, err := c.QueryView(context.Background(), "default", "byCity", views.QueryOptions{Stale: views.StaleFalse})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows: %d", len(rows))
	}
	// Results merged in key order.
	for i := 1; i < len(rows); i++ {
		if rows[i-1].Key.(string) > rows[i].Key.(string) {
			t.Fatal("merge order broken")
		}
	}
	// Reduced count across nodes.
	rows, _ = c.QueryView(context.Background(), "default", "byCity", views.QueryOptions{Stale: views.StaleFalse, Reduce: true})
	if rows[0].Value != 7.0 {
		t.Fatalf("reduce: %+v", rows)
	}
	// Grouped.
	rows, _ = c.QueryView(context.Background(), "default", "byCity", views.QueryOptions{Stale: views.StaleFalse, Reduce: true, Group: true})
	counts := map[string]float64{}
	for _, r := range rows {
		counts[r.Key.(string)] = r.Value.(float64)
	}
	if counts["SF"] != 4 || counts["NY"] != 2 || counts["LA"] != 1 {
		t.Fatalf("grouped: %v", counts)
	}
	// Key lookup with limit.
	rows, _ = c.QueryView(context.Background(), "default", "byCity", views.QueryOptions{Stale: views.StaleFalse, Key: "SF", HasKey: true, Limit: 2})
	if len(rows) != 2 {
		t.Fatalf("limited: %+v", rows)
	}
}

func TestN1QLOnCluster(t *testing.T) {
	c, cl := newTestCluster(t, 2, 0)
	for i := 0; i < 20; i++ {
		cl.Set(context.Background(), fmt.Sprintf("profile::%02d", i),
			[]byte(fmt.Sprintf(`{"name": "user%02d", "age": %d, "city": "%s"}`, i, 20+i, []string{"SF", "NY"}[i%2])), 0)
	}
	// DDL through N1QL.
	if _, err := c.Query("CREATE PRIMARY INDEX ON `default`", executor.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("CREATE INDEX byAge ON `default`(age)", executor.Options{}); err != nil {
		t.Fatal(err)
	}
	// request_plus SELECT sees all writes.
	res, err := c.Query("SELECT name FROM `default` WHERE age >= 30 ORDER BY age LIMIT 5",
		executor.Options{Consistency: executor.RequestPlus})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows: %+v", res.Rows)
	}
	if res.Rows[0].(map[string]any)["name"] != "user10" {
		t.Fatalf("first row: %+v", res.Rows[0])
	}
	// Aggregation across the cluster.
	res, err = c.Query("SELECT city, COUNT(*) AS n FROM `default` GROUP BY city ORDER BY city",
		executor.Options{Consistency: executor.RequestPlus})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[1].(map[string]any)["n"] != 10.0 {
		t.Fatalf("group: %+v", res.Rows)
	}
	// DML through N1QL: visible via KV.
	res, err = c.Query("UPDATE `default` SET vip = TRUE WHERE age >= 38", executor.Options{Consistency: executor.RequestPlus})
	if err != nil {
		t.Fatal(err)
	}
	if res.MutationCount != 2 {
		t.Fatalf("updated %d", res.MutationCount)
	}
	it, _ := cl.Get(context.Background(), "profile::19")
	if string(it.Value) == "" || !contains(string(it.Value), `"vip":true`) {
		t.Errorf("updated doc: %s", it.Value)
	}
	// EXPLAIN works on the cluster catalog.
	res, err = c.Query("EXPLAIN SELECT name FROM `default` WHERE age > 30", executor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan := res.Rows[0].(map[string]any)
	first := plan["operators"].([]any)[0].(map[string]any)
	if first["index"] != "byAge" {
		t.Errorf("explain chose %v", first["index"])
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestViewBackedIndexUSINGVIEW(t *testing.T) {
	c, cl := newTestCluster(t, 2, 0)
	for i := 0; i < 10; i++ {
		cl.Set(context.Background(), fmt.Sprintf("p%02d", i), []byte(fmt.Sprintf(`{"email": "e%02d@x.com"}`, i)), 0)
	}
	if _, err := c.Query("CREATE INDEX email ON `default`(email) USING VIEW", executor.Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query(`SELECT email FROM `+"`default`"+` WHERE email >= "e05@x.com" ORDER BY email`,
		executor.Options{Consistency: executor.RequestPlus})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("view-index rows: %+v", res.Rows)
	}
	// The plan uses the view index.
	pres, _ := c.Query("EXPLAIN SELECT email FROM `default` WHERE email >= \"e05@x.com\"", executor.Options{})
	first := pres.Rows[0].(map[string]any)["operators"].([]any)[0].(map[string]any)
	if first["using"] != "VIEW" {
		t.Errorf("plan not using VIEW: %+v", first)
	}
	// Drop it.
	if _, err := c.Query("DROP INDEX `default`.email", executor.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestMDSTopologyEnforcement(t *testing.T) {
	c, err := NewCluster(Config{Dir: t.TempDir(), NumVBuckets: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Data-only cluster: no query, no index service.
	c.AddNode("data0", cmap.ServiceSet(cmap.ServiceData))
	c.CreateBucket("default", BucketOptions{})
	cl, _ := c.OpenBucket("default")
	if _, err := cl.Set(context.Background(), "k", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("SELECT 1", executor.Options{}); err != ErrNoQueryNode {
		t.Fatalf("query without query node: %v", err)
	}
	// Add a query-only node: N1QL now works, but index DDL still fails.
	c.AddNode("query0", cmap.ServiceSet(cmap.ServiceQuery))
	if _, err := c.Query("SELECT RAW 1", executor.Options{}); err != nil {
		t.Fatalf("query with query node: %v", err)
	}
	if _, err := c.Query("CREATE INDEX i ON `default`(x)", executor.Options{}); err != ErrNoIndexNode {
		t.Fatalf("create index without index node: %v", err)
	}
	// Add an index node: DDL works.
	c.AddNode("index0", cmap.ServiceSet(cmap.ServiceIndex))
	if _, err := c.Query("CREATE INDEX i ON `default`(x)", executor.Options{}); err != nil {
		t.Fatalf("create index with index node: %v", err)
	}
	// The query-only node owns no vbuckets.
	b, _ := c.bucket("default")
	if len(b.Map().ActiveVBuckets("query0")) != 0 {
		t.Error("query node owns vbuckets")
	}
}

func TestFTSOnCluster(t *testing.T) {
	c, cl := newTestCluster(t, 2, 0)
	eng, err := c.FTS("default")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Define(ftsIndexDef("content", "body")); err != nil {
		t.Fatal(err)
	}
	cl.Set(context.Background(), "d1", []byte(`{"body": "distributed database systems"}`), 0)
	cl.Set(context.Background(), "d2", []byte(`{"body": "key value caching"}`), 0)
	hits, err := eng.SearchTerm(context.Background(), "content", "database", ftsSearchOpts(c.ConsistencyVector("default")))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].ID != "d1" {
		t.Fatalf("fts hits: %+v", hits)
	}
}

func TestGetAndLockOnCluster(t *testing.T) {
	_, cl := newTestCluster(t, 2, 0)
	cl.Set(context.Background(), "doc", []byte("v"), 0)
	locked, err := cl.GetAndLock(context.Background(), "doc", 15)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Set(context.Background(), "doc", []byte("x"), 0); err != cache.ErrLocked {
		t.Fatalf("locked write: %v", err)
	}
	if err := cl.Unlock(context.Background(), "doc", locked.CAS); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Set(context.Background(), "doc", []byte("x"), 0); err != nil {
		t.Fatalf("after unlock: %v", err)
	}
}

func TestBucketErrors(t *testing.T) {
	c, _ := newTestCluster(t, 1, 0)
	if err := c.CreateBucket("default", BucketOptions{}); err != ErrBucketExists {
		t.Errorf("dup bucket: %v", err)
	}
	if _, err := c.OpenBucket("ghost"); err != ErrNoSuchBucket {
		t.Errorf("open ghost: %v", err)
	}
	if _, err := c.AddNode("node0", cmap.AllServices); err == nil {
		t.Error("dup node should fail")
	}
	if _, err := c.Node("ghost"); err != ErrNoSuchNode {
		t.Errorf("ghost node: %v", err)
	}
}

func TestMemoryQuotaEvictsValues(t *testing.T) {
	c, err := NewCluster(Config{Dir: t.TempDir(), NumVBuckets: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.AddNode("node0", cmap.AllServices)
	// A tiny per-node quota forces the item pager to evict values.
	if err := c.CreateBucket("default", BucketOptions{MemoryQuotaBytes: 64 * 1024}); err != nil {
		t.Fatal(err)
	}
	cl, _ := c.OpenBucket("default")
	big := make([]byte, 2048)
	for i := range big {
		big[i] = 'x'
	}
	for i := 0; i < 200; i++ {
		if _, err := cl.SetWithOptions(context.Background(), fmt.Sprintf("big%03d", i), big, 0, 0, 0,
			DurabilityOptions{PersistTo: true}); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the pager to bring memory under the high watermark.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var mem int64
		for _, st := range c.Stats("default") {
			mem += st.MemUsed
		}
		if mem < 64*1024 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pager never evicted: mem=%d", mem)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Every key and value remains readable (bg-fetch restores evicted
	// values from the storage engine).
	for i := 0; i < 200; i++ {
		it, err := cl.Get(context.Background(), fmt.Sprintf("big%03d", i))
		if err != nil || len(it.Value) != len(big) {
			t.Fatalf("get big%03d after eviction: %v", i, err)
		}
	}
	// Item count unchanged: only values were evicted.
	var items int64
	for _, st := range c.Stats("default") {
		items += st.Items
	}
	if items != 200 {
		t.Fatalf("items = %d", items)
	}
}

func TestAnalyticsServiceOnCluster(t *testing.T) {
	c, cl := newTestCluster(t, 2, 0)
	// Load the two-document-type analytic fixture.
	for i := 0; i < 4; i++ {
		cl.Set(context.Background(), fmt.Sprintf("customer::%d", i),
			[]byte(fmt.Sprintf(`{"type": "customer", "cid": %d}`, i)), 0)
	}
	for i := 0; i < 12; i++ {
		cl.Set(context.Background(), fmt.Sprintf("order::%d", i),
			[]byte(fmt.Sprintf(`{"type": "order", "customer": %d, "total": %d}`, i%4, i)), 0)
	}
	if err := c.EnableAnalytics("default"); err != nil {
		t.Fatal(err)
	}
	// A general (non-key) join is rejected by the N1QL query service...
	_, err := c.Query(`SELECT * FROM `+"`default`"+` o JOIN `+"`default`"+` c ON o.customer = c.cid`, executor.Options{})
	if err == nil || !contains(err.Error(), "general") {
		t.Fatalf("query service should reject general joins: %v", err)
	}
	// ...but the analytics service runs it, without touching the data
	// service.
	rows, err := c.AnalyticsQuery(context.Background(), "default",
		`SELECT c.cid, COUNT(*) AS n FROM `+"`default`"+` o JOIN `+"`default`"+` c ON o.customer = c.cid WHERE o.type = "order" GROUP BY c.cid ORDER BY c.cid`,
		analyticsOpts(c.ConsistencyVector("default")))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 || rows[0].(map[string]any)["n"] != 3.0 {
		t.Fatalf("analytics join: %v", rows)
	}
}

func TestAnalyticsRequiresServiceNode(t *testing.T) {
	c, err := NewCluster(Config{Dir: t.TempDir(), NumVBuckets: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// No analytics service anywhere.
	c.AddNode("d0", cmap.ServiceSet(cmap.ServiceData|cmap.ServiceQuery|cmap.ServiceIndex))
	c.CreateBucket("default", BucketOptions{})
	if err := c.EnableAnalytics("default"); err != ErrNoAnalyticsNode {
		t.Fatalf("enable without node: %v", err)
	}
	if _, err := c.AnalyticsQuery(context.Background(), "default", "SELECT 1", analyticsOpts(nil)); err != ErrNoAnalyticsNode {
		t.Fatalf("query without node: %v", err)
	}
	c.AddNode("a0", cmap.ServiceSet(cmap.ServiceAnalytics))
	if err := c.EnableAnalytics("default"); err != nil {
		t.Fatalf("enable with node: %v", err)
	}
}

func TestOnlineCompactionTriggersAutomatically(t *testing.T) {
	c, cl := newTestCluster(t, 1, 0)
	// Hammer one key so its vBucket file fills with stale versions. A
	// slow trickle (distinct seqno batches) prevents flusher dedup from
	// hiding the fragmentation.
	big := make([]byte, 4096)
	var last cache.Item
	for i := 0; i < 100; i++ {
		it, err := cl.SetWithOptions(context.Background(), "hot", big, 0, 0, 0, DurabilityOptions{PersistTo: true})
		if err != nil {
			t.Fatal(err)
		}
		last = it
	}
	_ = last
	// Locate the vBucket file and wait for the compactor to shrink it.
	b, _ := c.bucket("default")
	m := b.Map()
	nodeID, vbID := m.NodeForKey("hot")
	node, _ := c.Node(nodeID)
	nb, _ := node.bucket("default")
	f, err := nb.store.VB(vbID)
	if err != nil {
		t.Fatal(err)
	}
	if f.Fragmentation() < compactionThreshold {
		t.Skipf("file not fragmented enough to test (%v)", f.Fragmentation())
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.Fragmentation() > compactionThreshold {
		if time.Now().After(deadline) {
			t.Fatalf("compactor never ran: frag %v", f.Fragmentation())
		}
		time.Sleep(50 * time.Millisecond)
	}
	// Data intact after compaction.
	it, err := cl.Get(context.Background(), "hot")
	if err != nil || len(it.Value) != len(big) {
		t.Fatalf("doc after compaction: %v", err)
	}
}

func TestExpiryPagerReapsProactively(t *testing.T) {
	c, cl := newTestCluster(t, 1, 0)
	past := time.Now().Unix() - 10
	for i := 0; i < 10; i++ {
		if _, err := cl.SetWithOptions(context.Background(), fmt.Sprintf("ttl%d", i), []byte("v"), 0, past, 0, DurabilityOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	// Without touching the keys, the maintenance loop tombstones them.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var items int64
		for _, st := range c.Stats("default") {
			items += st.Items
		}
		if items == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("expiry pager never reaped: %d items", items)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestClusterRestartRecoversPersistedData(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Cluster, *Client) {
		c, err := NewCluster(Config{Dir: dir, NumVBuckets: 16})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := c.AddNode(cmap.NodeID(fmt.Sprintf("node%d", i)), cmap.AllServices); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.CreateBucket("default", BucketOptions{NumReplicas: 1}); err != nil {
			t.Fatal(err)
		}
		cl, _ := c.OpenBucket("default")
		return c, cl
	}
	c1, cl1 := open()
	var metas []cache.Item
	for i := 0; i < 40; i++ {
		it, err := cl1.SetWithOptions(context.Background(), fmt.Sprintf("doc%02d", i), []byte(fmt.Sprintf(`{"i": %d}`, i)),
			0, 0, 0, DurabilityOptions{PersistTo: true})
		if err != nil {
			t.Fatal(err)
		}
		metas = append(metas, it)
	}
	cl1.Delete(context.Background(), "doc00", 0)
	c1.Close()

	// Same directory, same topology: the data comes back.
	c2, cl2 := open()
	defer c2.Close()
	for i := 1; i < 40; i++ {
		it, err := cl2.Get(context.Background(), fmt.Sprintf("doc%02d", i))
		if err != nil || string(it.Value) != fmt.Sprintf(`{"i": %d}`, i) {
			t.Fatalf("doc%02d after restart: %v", i, err)
		}
		if it.CAS != metas[i].CAS {
			t.Fatalf("doc%02d CAS changed across restart: %d vs %d", i, it.CAS, metas[i].CAS)
		}
	}
	// Deletions persisted too... unless the tombstone flush raced the
	// shutdown; the delete above was not PersistTo-acknowledged, so
	// only assert the live set is a superset of what was durable.
	// New writes get CAS values beyond the recovered ones.
	it, err := cl2.Set(context.Background(), "fresh", []byte("x"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if it.CAS <= metas[39].CAS {
		t.Fatalf("CAS clock regressed after restart: %d <= %d", it.CAS, metas[39].CAS)
	}
	// Indexes built after restart see the recovered data.
	if _, err := c2.Query("CREATE PRIMARY INDEX ON `default`", executor.Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := c2.Query("SELECT COUNT(*) AS n FROM `default`", executor.Options{Consistency: executor.RequestPlus})
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0].(map[string]any)["n"].(float64); n < 39 {
		t.Fatalf("recovered count: %v", n)
	}
}

func TestViewsStayConsistentAcrossRebalance(t *testing.T) {
	// §4.3.3: "when a partition has migrated to a different server, the
	// documents that belong to the migrated partition should not be
	// used in the view result anymore" — and the new owner's view must
	// include them. Net effect: no lost and no duplicated view rows.
	c, cl := newTestCluster(t, 2, 0)
	if err := c.DefineView("default", views.Definition{
		Name: "byN", Map: views.MapSpec{Key: "doc.n"},
	}); err != nil {
		t.Fatal(err)
	}
	const docs = 60
	for i := 0; i < docs; i++ {
		cl.Set(context.Background(), fmt.Sprintf("d%03d", i), []byte(fmt.Sprintf(`{"n": %d}`, i)), 0)
	}
	check := func(stage string) {
		rows, err := c.QueryView(context.Background(), "default", "byN", views.QueryOptions{Stale: views.StaleFalse})
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if len(rows) != docs {
			t.Fatalf("%s: %d view rows, want %d", stage, len(rows), docs)
		}
		seen := map[string]bool{}
		for _, r := range rows {
			if seen[r.ID] {
				t.Fatalf("%s: duplicate view row for %s", stage, r.ID)
			}
			seen[r.ID] = true
		}
	}
	check("before rebalance")
	c.AddNode("node2", cmap.AllServices)
	if err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	check("after rebalance")
	// Post-rebalance mutations index on the new owners.
	cl.Set(context.Background(), "d000", []byte(`{"n": 999}`), 0)
	rows, _ := c.QueryView(context.Background(), "default", "byN", views.QueryOptions{
		Stale: views.StaleFalse, Key: 999.0, HasKey: true,
	})
	if len(rows) != 1 {
		t.Fatalf("post-rebalance update not indexed: %v", rows)
	}
}

func TestGSIStaysConsistentAcrossRebalance(t *testing.T) {
	c, cl := newTestCluster(t, 2, 0)
	if _, err := c.Query("CREATE INDEX byN ON `default`(n)", executor.Options{}); err != nil {
		t.Fatal(err)
	}
	const docs = 60
	for i := 0; i < docs; i++ {
		cl.Set(context.Background(), fmt.Sprintf("d%03d", i), []byte(fmt.Sprintf(`{"n": %d}`, i)), 0)
	}
	count := func(stage string) {
		res, err := c.Query("SELECT COUNT(*) AS c FROM `default` WHERE n >= 0",
			executor.Options{Consistency: executor.RequestPlus})
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		if got := res.Rows[0].(map[string]any)["c"]; got != float64(docs) {
			t.Fatalf("%s: count %v, want %d", stage, got, docs)
		}
	}
	count("before rebalance")
	c.AddNode("node2", cmap.AllServices)
	if err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	count("after rebalance")
	// Update through the new topology; the index follows.
	cl.Set(context.Background(), "d000", []byte(`{"n": -1}`), 0)
	res, _ := c.Query("SELECT COUNT(*) AS c FROM `default` WHERE n >= 0",
		executor.Options{Consistency: executor.RequestPlus})
	if got := res.Rows[0].(map[string]any)["c"]; got != float64(docs-1) {
		t.Fatalf("post-rebalance update: count %v", got)
	}
}

func TestGSIStaysConsistentAcrossFailover(t *testing.T) {
	c, cl := newTestCluster(t, 3, 1)
	if _, err := c.Query("CREATE INDEX byN ON `default`(n)", executor.Options{}); err != nil {
		t.Fatal(err)
	}
	const docs = 45
	for i := 0; i < docs; i++ {
		if _, err := cl.SetWithOptions(context.Background(), fmt.Sprintf("d%03d", i), []byte(fmt.Sprintf(`{"n": %d}`, i)),
			0, 0, 0, DurabilityOptions{ReplicateTo: 1}); err != nil {
			t.Fatal(err)
		}
	}
	c.Kill("node2")
	if err := c.Failover("node2"); err != nil {
		t.Fatal(err)
	}
	// Wait out the promoted vBuckets' re-projection, then verify no
	// rows were lost or duplicated in the index.
	res, err := c.Query("SELECT COUNT(*) AS c FROM `default` WHERE n >= 0",
		executor.Options{Consistency: executor.RequestPlus})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0].(map[string]any)["c"]; got != float64(docs) {
		t.Fatalf("count after failover: %v, want %d", got, docs)
	}
}

func TestFullEvictionModeOnCluster(t *testing.T) {
	c, err := NewCluster(Config{Dir: t.TempDir(), NumVBuckets: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.AddNode("node0", cmap.AllServices)
	if err := c.CreateBucket("default", BucketOptions{
		MemoryQuotaBytes: 48 * 1024,
		FullEviction:     true,
	}); err != nil {
		t.Fatal(err)
	}
	cl, _ := c.OpenBucket("default")
	filler := make([]byte, 2000)
	for i := range filler {
		filler[i] = 'x'
	}
	big := []byte(fmt.Sprintf(`{"pad": "%s"}`, filler))
	for i := 0; i < 200; i++ {
		if _, err := cl.SetWithOptions(context.Background(), fmt.Sprintf("big%03d", i), big, 0, 0, 0,
			DurabilityOptions{PersistTo: true}); err != nil {
			t.Fatal(err)
		}
	}
	// The pager removes whole items: the in-memory item count drops
	// (value eviction would keep Items at 200).
	deadline := time.Now().Add(10 * time.Second)
	for {
		var items, mem int64
		for _, st := range c.Stats("default") {
			items += st.Items
			mem += st.MemUsed
		}
		if items < 200 && mem < 48*1024 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("full eviction never kicked in: items=%d mem=%d", items, mem)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Everything still readable via disk miss-fetch.
	for i := 0; i < 200; i++ {
		it, err := cl.Get(context.Background(), fmt.Sprintf("big%03d", i))
		if err != nil || len(it.Value) != len(big) {
			t.Fatalf("get big%03d after full eviction: %v", i, err)
		}
	}
	// And a request_plus query over an index sees everything, even
	// though many documents only exist on disk at index-build time.
	if _, err := c.Query("CREATE PRIMARY INDEX ON `default`", executor.Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := c.Query("SELECT COUNT(*) AS n FROM `default`", executor.Options{Consistency: executor.RequestPlus})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0].(map[string]any)["n"]; got != 200.0 {
		t.Fatalf("count over fully-evicted bucket: %v", got)
	}
}
