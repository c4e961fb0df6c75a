package health

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/events"
	"couchgo/internal/executor"
	"couchgo/internal/trace"
)

// TestAutoFailoverCausalChain is the tentpole acceptance test: the
// watchdog observes a killed node, its sustained-critical node check
// triggers the failover path, and the journal records the causal chain
// in order — health critical, then the vb takeover, then the feed
// rollback — with the rollback event carrying the trace ID of the last
// mutation the index applied. All of it runs under concurrent client
// load (and under -race via the repo's race gate).
func TestAutoFailoverCausalChain(t *testing.T) {
	mark := events.Default.LastSeq()

	// Sample every operation so mutations carry traces and the rollback
	// event can link back to its originating write.
	trace.SetRate(1)
	t.Cleanup(func() { trace.SetRate(0) })

	c, err := core.NewCluster(core.Config{Dir: t.TempDir(), NumVBuckets: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for i := 0; i < 2; i++ {
		if _, err := c.AddNode(cmap.NodeID(fmt.Sprintf("node%d", i)), cmap.AllServices); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateBucket("default", core.BucketOptions{NumReplicas: 1}); err != nil {
		t.Fatal(err)
	}
	cl, err := c.OpenBucket("default")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query("CREATE INDEX byN ON `default`(n)", executor.Options{}); err != nil {
		t.Fatal(err)
	}

	// Watchdog with auto-failover wiring: a sustained-critical node
	// check invokes the existing failover path, exactly as cbserver's
	// -auto-failover flag wires it.
	w := New(Options{Interval: 5 * time.Millisecond, RaiseAfter: 2, ClearAfter: 2})
	RegisterClusterChecks(w, c, ClusterCheckConfig{})
	AutoFailover(w, "node:", c.Failover)
	w.Start()
	t.Cleanup(w.Stop)

	// Replicated baseline, then divergence: sever replication and write
	// documents only the actives (and the index feeds) ever see.
	for i := 0; i < 20; i++ {
		if _, err := cl.SetWithOptions(context.Background(), fmt.Sprintf("d%03d", i),
			[]byte(fmt.Sprintf(`{"n": %d}`, i)), 0, 0, 0,
			core.DurabilityOptions{ReplicateTo: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SeverReplication("default"); err != nil {
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
		i := 0
		for {
			select {
			case <-stopLoad:
				return
			default:
			}
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			_, _ = cl.Set(ctx, fmt.Sprintf("load%04d", i), []byte(`{"n": 1}`), 0)
			cancel()
			i++
		}
	}()
	defer func() {
		close(stopLoad)
		loadWG.Wait()
	}()

	// Kill the node. The heartbeat auto-failover is disabled
	// (FailoverTimeout zero), so only the watchdog can trigger failover.
	if err := c.Kill("node0"); err != nil {
		t.Fatal(err)
	}

	// Wait for the full causal chain to land in the journal.
	var healthSeq, takeoverSeq, rollbackSeq uint64
	var rollbackTrace uint64
	waitFor(t, "causal chain in journal", func() bool {
		healthSeq, takeoverSeq, rollbackSeq, rollbackTrace = 0, 0, 0, 0
		for _, e := range events.Default.Events(events.Filter{SinceSeq: mark}) {
			switch {
			case e.Type == events.Health && e.Severity == events.SevCritical &&
				e.Fields["check"] == "node:node0" && healthSeq == 0:
				healthSeq = e.Seq
			case e.Type == events.VBucket && e.Node == "node1" && takeoverSeq == 0:
				takeoverSeq = e.Seq
			case e.Type == events.FeedEvent && e.Service == "gsi" &&
				e.TraceID != 0 && rollbackSeq == 0:
				rollbackSeq = e.Seq
				rollbackTrace = e.TraceID
			}
		}
		return healthSeq != 0 && takeoverSeq != 0 && rollbackSeq != 0
	})
	if !(healthSeq < takeoverSeq && takeoverSeq < rollbackSeq) {
		t.Fatalf("causal order violated: health=%d takeover=%d rollback=%d",
			healthSeq, takeoverSeq, rollbackSeq)
	}
	if rollbackTrace == 0 {
		t.Fatal("rollback event carries no trace ID")
	}

	// The topology events are there too: the watchdog-triggered
	// failover itself was journaled.
	found := false
	for _, e := range events.Default.Events(events.Filter{Type: events.Topology, SinceSeq: mark}) {
		if e.Node == "node0" && e.Msg == "node failed over" {
			found = true
		}
	}
	if !found {
		t.Fatal("no 'node failed over' topology event in journal")
	}

	// And the node check recovers: once failover unmapped node0, the
	// critical condition clears (back to ok with hysteresis).
	waitFor(t, "node check recovery", func() bool {
		for _, st := range w.Snapshot() {
			if st.Name == "node:node0" {
				return st.State == OK
			}
		}
		return false
	})
}
