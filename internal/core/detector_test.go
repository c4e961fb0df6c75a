package core_test

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/events"
	"couchgo/internal/executor"
	"couchgo/internal/trace"
)

// autoFailovers counts the "auto-failover" entries for a node since seq.
func autoFailovers(node cmap.NodeID, seq uint64) (n int) {
	for _, e := range events.Default.Events(events.Filter{Type: events.Topology, SinceSeq: seq}) {
		if e.Msg == "auto-failover" && e.Node == string(node) {
			n++
		}
	}
	return n
}

// TestFailoverSilent is the detector's table on a library cluster: the
// heartbeat loop hears the alive nodes, then Decider.FailoverSilent fails
// over a mapped node silent past Config.FailoverTimeout, once. The same
// rows run against a networked seed in transport's
// TestSeedFailsOverSilentMembers.
func TestFailoverSilent(t *testing.T) {
	const timeout = 50 * time.Millisecond
	kill := func(id cmap.NodeID) func(*testing.T, *core.Cluster) cmap.NodeID {
		return func(t *testing.T, c *core.Cluster) cmap.NodeID {
			if err := c.Kill(id); err != nil {
				t.Fatal(err)
			}
			return id
		}
	}
	rows := []struct {
		name    string
		beat    time.Duration // Config.HeartbeatInterval
		timeout time.Duration // Config.FailoverTimeout
		nodes   int
		act     func(*testing.T, *core.Cluster) cmap.NodeID // returns the node to watch
		failed  bool                                        // whether the watched node is failed over
	}{
		{"a killed node", 10 * time.Millisecond, timeout, 3, kill("node1"), true},
		// Setup takes a fraction of the first beat: the loop never heard
		// node1, AddNode did.
		{"a node killed before the first tick", 500 * time.Millisecond, timeout, 3, kill("node1"), true},
		{"a node failed over by hand", 10 * time.Millisecond, timeout, 3, func(t *testing.T, c *core.Cluster) cmap.NodeID {
			kill("node1")(t, c)
			if err := c.Failover("node1"); err != nil {
				t.Fatal(err)
			}
			return "node1"
		}, false},
		{"a zero timeout", 10 * time.Millisecond, 0, 3, kill("node1"), false},
		{"one node alone", 10 * time.Millisecond, timeout, 1, func(*testing.T, *core.Cluster) cmap.NodeID { return "node0" }, false},
		{"a late node, unmapped", 10 * time.Millisecond, timeout, 3, func(t *testing.T, c *core.Cluster) cmap.NodeID {
			if _, err := c.AddNode("node3", cmap.AllServices); err != nil {
				t.Fatal(err)
			}
			return kill("node3")(t, c)
		}, false},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			mark := events.Default.LastSeq()
			c, err := core.NewCluster(core.Config{Dir: t.TempDir(), NumVBuckets: 8,
				HeartbeatInterval: row.beat, FailoverTimeout: row.timeout})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(c.Close)
			for i := 0; i < row.nodes; i++ {
				if _, err := c.AddNode(cmap.NodeID(fmt.Sprintf("node%d", i)), cmap.AllServices); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.CreateBucket(bucket, core.BucketOptions{NumReplicas: 1}); err != nil {
				t.Fatal(err)
			}
			formed, _ := c.BucketMap(bucket)
			// The heard set holds map names only: after formation the live
			// nodes are exactly the map's.
			live := c.Decider().Live()
			if slices.Sort(live); row.timeout > 0 && !slices.Equal(live, formed.Nodes) {
				t.Fatalf("Live() = %v after formation, want the map's nodes %v", live, formed.Nodes)
			}
			watch := row.act(t, c)
			before, _ := c.BucketMap(bucket)
			if row.failed {
				eventually(t, "auto-failover", func() error {
					if m, _ := c.BucketMap(bucket); m.Maps(watch) || autoFailovers(watch, mark) == 0 {
						return fmt.Errorf("%s still mapped at rev %d", watch, m.Rev)
					}
					return nil
				})
				before, _ = c.BucketMap(bucket)
			}
			time.Sleep(3 * timeout)
			if m, _ := c.BucketMap(bucket); m.Rev != before.Rev {
				t.Errorf("map rev %d -> %d with nothing left to fail over", before.Rev, m.Rev)
			}
			want := 0
			if row.failed {
				want = 1
			}
			if n := autoFailovers(watch, mark); n != want {
				t.Errorf("%d auto-failover entries for %s, want %d", n, watch, want)
			}
		})
	}
}

// TestAutoFailoverCausalChain: the library's detector notices a killed
// node and the journal records the causal chain in order — the
// auto-failover, then the vb takeover, then the feed rollback — with the
// rollback carrying the trace ID of the last mutation the index applied.
// All of it runs under concurrent client load (and under -race via the
// repo's race gate).
func TestAutoFailoverCausalChain(t *testing.T) {
	mark := events.Default.LastSeq()

	// Sample every operation so mutations carry traces and the rollback
	// event can link back to its originating write.
	trace.Default.SetRate(1)
	t.Cleanup(func() { trace.Default.SetRate(0) })

	c, err := core.NewCluster(core.Config{Dir: t.TempDir(), NumVBuckets: 16,
		HeartbeatInterval: 5 * time.Millisecond, FailoverTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for i := 0; i < 2; i++ {
		if _, err := c.AddNode(cmap.NodeID(fmt.Sprintf("node%d", i)), cmap.AllServices); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateBucket(bucket, core.BucketOptions{NumReplicas: 1}); err != nil {
		t.Fatal(err)
	}
	cl, err := c.OpenBucket(bucket)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("CREATE INDEX byN ON `default`(n)", executor.Options{}); err != nil {
		t.Fatal(err)
	}

	// Replicated baseline, then divergence: sever replication and write
	// documents only the actives (and the index feeds) ever see.
	for i := 0; i < 20; i++ {
		if _, err := cl.SetWithOptions(context.Background(), fmt.Sprintf("d%03d", i),
			[]byte(fmt.Sprintf(`{"n": %d}`, i)), 0, 0, 0,
			core.DurabilityOptions{ReplicateTo: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SeverReplication(bucket); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := cl.Set(context.Background(), fmt.Sprintf("x%03d", i), []byte(`{"n": 100}`), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Force the index to consume the divergent writes so its feeds sit
	// past the replicas' history.
	if _, err := c.Query("SELECT COUNT(*) AS c FROM `default` WHERE n >= 0",
		executor.Options{Consistency: executor.RequestPlus}); err != nil {
		t.Fatal(err)
	}

	// Client load through the failover: writes race the takeover and
	// may fail while routing catches up — only the journal's story is
	// asserted.
	stopLoad := make(chan struct{})
	var loadWG sync.WaitGroup
	loadWG.Add(1)
	go func() {
		defer loadWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stopLoad:
				return
			default:
			}
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			_, _ = cl.Set(ctx, fmt.Sprintf("load%04d", i), []byte(`{"n": 1}`), 0)
			cancel()
		}
	}()
	defer func() {
		close(stopLoad)
		loadWG.Wait()
	}()

	if err := c.Kill("node0"); err != nil {
		t.Fatal(err)
	}

	var failoverSeq, takeoverSeq, rollbackSeq, rollbackTrace uint64
	eventually(t, "causal chain in journal", func() error {
		failoverSeq, takeoverSeq, rollbackSeq, rollbackTrace = 0, 0, 0, 0
		for _, e := range events.Default.Events(events.Filter{SinceSeq: mark}) {
			switch {
			case e.Msg == "auto-failover" && e.Node == "node0" && failoverSeq == 0:
				failoverSeq = e.Seq
			case e.Type == events.VBucket && e.Node == "node1" && takeoverSeq == 0:
				takeoverSeq = e.Seq
			case e.Type == events.FeedEvent && e.Service == "gsi" && e.TraceID != 0 && rollbackSeq == 0:
				rollbackSeq, rollbackTrace = e.Seq, e.TraceID
			}
		}
		if failoverSeq == 0 || takeoverSeq == 0 || rollbackSeq == 0 {
			return fmt.Errorf("auto-failover %d, takeover %d, rollback %d", failoverSeq, takeoverSeq, rollbackSeq)
		}
		return nil
	})
	if !(failoverSeq < takeoverSeq && takeoverSeq < rollbackSeq) {
		t.Fatalf("causal order violated: auto-failover=%d takeover=%d rollback=%d", failoverSeq, takeoverSeq, rollbackSeq)
	}
	if rollbackTrace == 0 {
		t.Fatal("rollback event carries no trace ID")
	}
	if m, _ := c.BucketMap(bucket); m.Maps("node0") {
		t.Fatal("node0 is still mapped after its auto-failover")
	}
}
