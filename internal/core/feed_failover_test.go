package core

import (
	"context"
	"fmt"
	"testing"

	"couchgo/internal/executor"
	"couchgo/internal/metrics"
)

// severReplication stops every intra-cluster replication stream so
// subsequent writes exist only on the active copies — the ingredient
// for divergent history at failover.
func severReplication(t *testing.T, c *Cluster, bucket string) {
	t.Helper()
	if err := c.SeverReplication(bucket); err != nil {
		t.Fatal(err)
	}
}

// TestFeedRollbackOnFailover drives the full rollback protocol through
// the cluster: a GSI consumer streams past the point the replicas have
// seen, the active fails over, and on reattach the promoted producer's
// failover log forces the feed to roll the index back and re-converge
// on the surviving history — counted in couchgo_feed_rollbacks_total.
func TestFeedRollbackOnFailover(t *testing.T) {
	c, cl := newTestCluster(t, 2, 1)
	if _, err := c.Query("CREATE INDEX byN ON `default`(n)", executor.Options{}); err != nil {
		t.Fatal(err)
	}
	count := func(stage string) int {
		t.Helper()
		res, err := c.Query("SELECT COUNT(*) AS c FROM `default` WHERE n >= 0",
			executor.Options{Consistency: executor.RequestPlus})
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		return int(res.Rows[0].(map[string]any)["c"].(float64))
	}

	// Replicated baseline.
	const base = 20
	for i := 0; i < base; i++ {
		if _, err := cl.SetWithOptions(context.Background(), fmt.Sprintf("d%03d", i), []byte(fmt.Sprintf(`{"n": %d}`, i)),
			0, 0, 0, DurabilityOptions{ReplicateTo: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if got := count("baseline"); got != base {
		t.Fatalf("baseline count = %d, want %d", got, base)
	}

	// Sever replication, then write documents that only the actives
	// (and the index, which feeds from the actives) will ever see.
	severReplication(t, c, "default")
	b, _ := c.bucket("default")
	oldMap := b.Map()
	const divergent = 40
	surviving := base
	sawNode0 := false
	for i := 0; i < divergent; i++ {
		k := fmt.Sprintf("x%03d", i)
		if _, err := cl.Set(context.Background(), k, []byte(`{"n": 100}`), 0); err != nil {
			t.Fatal(err)
		}
		if nodeID, _ := oldMap.NodeForKey(k); nodeID == "node0" {
			sawNode0 = true // this write dies with node0
		} else {
			surviving++
		}
	}
	if !sawNode0 {
		t.Fatal("test premise: no divergent write landed on node0")
	}
	// The index consumed the divergent writes: its feeds are now ahead
	// of every replica's history.
	if got := count("pre-failover"); got != base+divergent {
		t.Fatalf("pre-failover count = %d, want %d", got, base+divergent)
	}

	rollbacks := metrics.Default.Counter("couchgo_feed_rollbacks_total", "service", "gsi")
	before := rollbacks.Value()

	if err := c.Kill("node0"); err != nil {
		t.Fatal(err)
	}
	if err := c.Failover("node0"); err != nil {
		t.Fatal(err)
	}

	// The promoted replicas' takeover entries sit below the feeds'
	// resume seqnos, so reattachment must roll the index back; the
	// re-streamed index then matches exactly the surviving documents —
	// no phantom entries from the lost branch, nothing missing.
	if got := count("post-failover"); got != surviving {
		t.Fatalf("post-failover count = %d, want %d", got, surviving)
	}
	if got := rollbacks.Value(); got <= before {
		t.Fatalf("couchgo_feed_rollbacks_total = %d, want > %d", got, before)
	}

	// The cluster stays writable and the index follows new mutations.
	if _, err := cl.Set(context.Background(), "post", []byte(`{"n": 1}`), 0); err != nil {
		t.Fatal(err)
	}
	if got := count("post-failover write"); got != surviving+1 {
		t.Fatalf("count after new write = %d, want %d", got, surviving+1)
	}
}
