package xdcr

import (
	"context"
	"fmt"
	"testing"
	"time"

	"couchgo/internal/cache"
	"couchgo/internal/cmap"
	"couchgo/internal/core"
)

// newCluster builds a small cluster. Different node counts per cluster
// exercise the topology-awareness claim.
func newCluster(t *testing.T, name string, nodes int) *core.Cluster {
	t.Helper()
	c, err := core.NewCluster(core.Config{Dir: t.TempDir(), NumVBuckets: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for i := 0; i < nodes; i++ {
		if _, err := c.AddNode(cmap.NodeID(fmt.Sprintf("%s-n%d", name, i)), cmap.AllServices); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateBucket("default", core.BucketOptions{}); err != nil {
		t.Fatal(err)
	}
	return c
}

// start replicates src's bucket into dst's through dst's own client.
func start(src *core.Cluster, srcBucket string, dst *core.Cluster, dstBucket string, opts Options) (*Replicator, error) {
	dcl, err := dst.OpenBucket(dstBucket)
	if err != nil {
		return nil, err
	}
	return Start(src, srcBucket, dcl, opts)
}

// waitFor polls until cond or the deadline.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestBasicReplication(t *testing.T) {
	src := newCluster(t, "west", 2)
	dst := newCluster(t, "east", 3) // different topology
	r, err := start(src, "default", dst, "default", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	scl, _ := src.OpenBucket("default")
	dcl, _ := dst.OpenBucket("default")
	for i := 0; i < 40; i++ {
		if _, err := scl.Set(context.Background(), fmt.Sprintf("doc%02d", i), []byte(fmt.Sprintf(`{"i": %d}`, i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "replication of 40 docs", func() bool {
		for i := 0; i < 40; i++ {
			if _, err := dcl.Get(context.Background(), fmt.Sprintf("doc%02d", i)); err != nil {
				return false
			}
		}
		return true
	})
	// Values and metadata match.
	sit, _ := scl.Get(context.Background(), "doc07")
	dit, _ := dcl.Get(context.Background(), "doc07")
	if string(dit.Value) != string(sit.Value) || dit.CAS != sit.CAS || dit.RevSeqno != sit.RevSeqno {
		t.Errorf("replica mismatch: %+v vs %+v", dit, sit)
	}
}

func TestDeletesReplicate(t *testing.T) {
	src := newCluster(t, "west", 1)
	dst := newCluster(t, "east", 1)
	r, err := start(src, "default", dst, "default", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	scl, _ := src.OpenBucket("default")
	dcl, _ := dst.OpenBucket("default")
	scl.Set(context.Background(), "gone", []byte("v"), 0)
	waitFor(t, "initial doc", func() bool {
		_, err := dcl.Get(context.Background(), "gone")
		return err == nil
	})
	scl.Delete(context.Background(), "gone", 0)
	waitFor(t, "tombstone", func() bool {
		_, err := dcl.Get(context.Background(), "gone")
		return err == cache.ErrKeyNotFound
	})
}

func TestFilteredReplication(t *testing.T) {
	// §4.6: "filtered replication (based on a regular expression on the
	// document ID)".
	src := newCluster(t, "west", 1)
	dst := newCluster(t, "east", 1)
	r, err := start(src, "default", dst, "default", Options{FilterExpr: "^user::"})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	scl, _ := src.OpenBucket("default")
	dcl, _ := dst.OpenBucket("default")
	scl.Set(context.Background(), "user::1", []byte("u"), 0)
	scl.Set(context.Background(), "session::1", []byte("s"), 0)
	scl.Set(context.Background(), "user::2", []byte("u"), 0)
	waitFor(t, "filtered docs", func() bool {
		_, e1 := dcl.Get(context.Background(), "user::1")
		_, e2 := dcl.Get(context.Background(), "user::2")
		return e1 == nil && e2 == nil
	})
	if _, err := dcl.Get(context.Background(), "session::1"); err != cache.ErrKeyNotFound {
		t.Fatalf("filtered-out doc replicated: %v", err)
	}
	if st := r.Stats(); st.Filtered == 0 {
		t.Errorf("stats: %+v", st)
	}
	if _, err := start(src, "default", dst, "default", Options{FilterExpr: "("}); err == nil {
		t.Error("bad filter regex should fail")
	}
}

func TestConflictResolutionMostUpdatesWins(t *testing.T) {
	// §4.6.1: "the document with the most updates is considered the
	// winner", applied identically on both clusters.
	west := newCluster(t, "west", 1)
	east := newCluster(t, "east", 1)
	wcl, _ := west.OpenBucket("default")
	ecl, _ := east.OpenBucket("default")

	// Both clusters mutate the same key before any replication: west
	// updates it 3 times, east once.
	for i := 0; i < 3; i++ {
		wcl.Set(context.Background(), "conflict", []byte(fmt.Sprintf(`{"site": "west", "v": %d}`, i)), 0)
	}
	ecl.Set(context.Background(), "conflict", []byte(`{"site": "east", "v": 0}`), 0)

	// Bidirectional replication.
	r1, err := start(west, "default", east, "default", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r1.Stop()
	r2, err := start(east, "default", west, "default", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Stop()

	// Both converge on west's copy (rev 3 beats rev 1).
	waitFor(t, "convergence", func() bool {
		w, err1 := wcl.Get(context.Background(), "conflict")
		e, err2 := ecl.Get(context.Background(), "conflict")
		return err1 == nil && err2 == nil &&
			string(w.Value) == string(e.Value) &&
			w.RevSeqno == e.RevSeqno
	})
	w, _ := wcl.Get(context.Background(), "conflict")
	if string(w.Value) != `{"site": "west", "v": 2}` {
		t.Errorf("winner: %s", w.Value)
	}
}

func TestConflictTiebreakIsDeterministic(t *testing.T) {
	// Same rev count on both sides: CAS breaks the tie the same way on
	// both clusters.
	west := newCluster(t, "west", 1)
	east := newCluster(t, "east", 1)
	wcl, _ := west.OpenBucket("default")
	ecl, _ := east.OpenBucket("default")
	wcl.Set(context.Background(), "tie", []byte(`{"site": "west"}`), 0)
	ecl.Set(context.Background(), "tie", []byte(`{"site": "east"}`), 0) // same rev (1), later CAS

	r1, _ := start(west, "default", east, "default", Options{})
	defer r1.Stop()
	r2, _ := start(east, "default", west, "default", Options{})
	defer r2.Stop()

	waitFor(t, "tie convergence", func() bool {
		w, err1 := wcl.Get(context.Background(), "tie")
		e, err2 := ecl.Get(context.Background(), "tie")
		return err1 == nil && err2 == nil && string(w.Value) == string(e.Value)
	})
	w, _ := wcl.Get(context.Background(), "tie")
	e, _ := ecl.Get(context.Background(), "tie")
	if w.CAS != e.CAS {
		t.Errorf("CAS mismatch after convergence: %d vs %d", w.CAS, e.CAS)
	}
}

func TestContinuousWritesEventuallyConsistent(t *testing.T) {
	src := newCluster(t, "west", 2)
	dst := newCluster(t, "east", 2)
	r, _ := start(src, "default", dst, "default", Options{})
	defer r.Stop()
	scl, _ := src.OpenBucket("default")
	dcl, _ := dst.OpenBucket("default")
	// Interleave writes and overwrites.
	for round := 0; round < 5; round++ {
		for i := 0; i < 20; i++ {
			scl.Set(context.Background(), fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf(`{"round": %d}`, round)), 0)
		}
	}
	waitFor(t, "all final values", func() bool {
		for i := 0; i < 20; i++ {
			it, err := dcl.Get(context.Background(), fmt.Sprintf("k%02d", i))
			if err != nil || string(it.Value) != `{"round": 4}` {
				return false
			}
		}
		return true
	})
	st := r.Stats()
	if st.Applied == 0 || st.Sent < st.Applied {
		t.Errorf("stats: %+v", st)
	}
}

func TestReplicationSurvivesSourceFailover(t *testing.T) {
	src := newCluster(t, "west", 3)
	// Bucket with replicas so failover preserves data.
	dst := newCluster(t, "east", 1)

	// Recreate source bucket with replicas: cluster helper created it
	// without, so use a second bucket.
	if err := src.CreateBucket("rep", core.BucketOptions{NumReplicas: 1}); err != nil {
		t.Fatal(err)
	}
	if err := dst.CreateBucket("rep", core.BucketOptions{}); err != nil {
		t.Fatal(err)
	}
	r, err := start(src, "rep", dst, "rep", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	scl, _ := src.OpenBucket("rep")
	dcl, _ := dst.OpenBucket("rep")
	for i := 0; i < 30; i++ {
		if _, err := scl.SetWithOptions(context.Background(), fmt.Sprintf("k%02d", i), []byte("v1"), 0, 0, 0,
			core.DurabilityOptions{ReplicateTo: 1}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "pre-failover replication", func() bool {
		for i := 0; i < 30; i++ {
			if _, err := dcl.Get(context.Background(), fmt.Sprintf("k%02d", i)); err != nil {
				return false
			}
		}
		return true
	})
	// Kill a source node; XDCR reattaches to promoted actives.
	src.Kill("west-n1")
	if err := src.Failover("west-n1"); err != nil {
		t.Fatal(err)
	}
	for i := 30; i < 50; i++ {
		if _, err := scl.Set(context.Background(), fmt.Sprintf("k%02d", i), []byte("v2"), 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "post-failover replication", func() bool {
		for i := 30; i < 50; i++ {
			if _, err := dcl.Get(context.Background(), fmt.Sprintf("k%02d", i)); err != nil {
				return false
			}
		}
		return true
	})
}

func TestStopIsIdempotent(t *testing.T) {
	src := newCluster(t, "west", 1)
	dst := newCluster(t, "east", 1)
	r, _ := start(src, "default", dst, "default", Options{})
	r.Stop()
	r.Stop()
	if _, err := start(src, "nope", dst, "default", Options{}); err == nil {
		t.Error("unknown source bucket should fail")
	}
}

// TestFailedSendIsRetried: a mutation the destination fails, because
// the destination's active for its key is down, is sent again until it
// lands after the failover. The feed has recorded it as applied, so
// nothing else would ever send it again.
func TestFailedSendIsRetried(t *testing.T) {
	src := newCluster(t, "west", 1)
	dst := newCluster(t, "east", 2)
	if err := dst.CreateBucket("rep", core.BucketOptions{NumReplicas: 1}); err != nil {
		t.Fatal(err)
	}
	r, err := start(src, "default", dst, "rep", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	scl, _ := src.OpenBucket("default")
	dcl, _ := dst.OpenBucket("rep")
	ctx := context.Background()
	arrived := func(keys ...string) func() bool {
		return func() bool {
			for _, k := range keys {
				if _, err := dcl.Get(ctx, k); err != nil {
					return false
				}
			}
			return true
		}
	}
	if _, err := scl.Set(ctx, "before", []byte(`{}`), 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "before", arrived("before"))

	m, err := dst.BucketMap("rep")
	if err != nil {
		t.Fatal(err)
	}
	down, _ := m.NodeForKey("lost")
	if err := dst.Kill(down); err != nil {
		t.Fatal(err)
	}
	retries := mSendRetries.Value()
	if _, err := scl.Set(ctx, "lost", []byte(`{}`), 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a failed send of lost", func() bool { return mSendRetries.Value() > retries })
	if err := dst.Failover(down); err != nil {
		t.Fatal(err)
	}
	if _, err := scl.Set(ctx, "after", []byte(`{}`), 0); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "lost and after", arrived("lost", "after"))
	if st := r.Stats(); st.Sent != 3 || st.Applied != 3 {
		t.Errorf("stats %+v, want 3 sent and 3 applied", st)
	}
}
