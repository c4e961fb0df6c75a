package vbucket

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"couchgo/internal/cache"
	"couchgo/internal/dcp"
	"couchgo/internal/memcproto"
	"couchgo/internal/storage"
)

var bg = context.Background()

func newVB(t testing.TB, state State, cfg Config) (*VBucket, *storage.VBFile) {
	t.Helper()
	f, err := storage.Open(filepath.Join(t.TempDir(), "vb.couch"), false)
	if err != nil {
		t.Fatal(err)
	}
	vb := New(0, f, state, cfg)
	t.Cleanup(func() { vb.Close(); f.Close() })
	return vb, f
}

func TestMemoryFirstWritePath(t *testing.T) {
	vb, f := newVB(t, Active, Config{})
	it, err := vb.Set(bg, "k", []byte(`{"v":1}`), 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The write is acknowledged from memory; it reaches disk async.
	got, err := vb.Get(bg, "k", 0)
	if err != nil || string(got.Value) != `{"v":1}` {
		t.Fatalf("read-your-write from cache: %+v %v", got, err)
	}
	if err := vb.WaitPersist(context.Background(), it.Seqno, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rec, err := f.Get("k")
	if err != nil || string(rec.Value) != `{"v":1}` {
		t.Fatalf("persisted doc: %+v %v", rec, err)
	}
	if rec.Seqno != it.Seqno || rec.CAS != it.CAS {
		t.Error("persisted metadata mismatch")
	}
}

func TestNonActiveRejectsKVOps(t *testing.T) {
	vb, _ := newVB(t, Replica, Config{})
	for _, spec := range memcproto.KVOps() {
		_, err := vb.Do(bg, &Op{Code: spec.Code, Key: "k", Path: "p"})
		if isNotMyVBucket(err) == spec.AnyState {
			t.Errorf("%s on replica: %v (row AnyState=%v)", spec.Name, err, spec.AnyState)
		}
	}
	// Promotion makes them work.
	vb.SetState(Active)
	if _, err := vb.Set(bg, "k", []byte("v"), 0, 0, 0, 0); err != nil {
		t.Errorf("after promotion: %v", err)
	}
}

// TestDeadSealsAWriteInFlight is the window of a copy that stops being
// active: a Set that passed Do's state check while the copy was Active
// commits after a move has set it Dead and read its high seqno, or after
// a reconcile has demoted it to a replica. It must not be acknowledged
// past that seqno, or the copy that takes over, caught up only to it,
// loses the write.
func TestDeadSealsAWriteInFlight(t *testing.T) {
	for _, to := range []State{Dead, Replica} {
		t.Run(to.String(), func(t *testing.T) {
			vb, _ := newVB(t, Active, Config{})
			persisted(t, vb, "a", "1")
			checked, release := make(chan struct{}), make(chan struct{})
			ctx := &hookCtx{Context: bg, onValue: func() { close(checked); <-release }}
			type result struct {
				it  cache.Item
				err error
			}
			done := make(chan result)
			go func() {
				it, err := vb.Set(ctx, "k", []byte("v"), 0, 0, 0, 0)
				done <- result{it, err}
			}()
			<-checked
			vb.SetState(to)
			srcHigh := vb.HighSeqno()
			close(release)
			r := <-done
			if r.err == nil && r.it.Seqno > srcHigh {
				t.Fatalf("a write acked at seqno %d after the copy went %s at %d", r.it.Seqno, to, srcHigh)
			}
			if r.err != nil && !isNotMyVBucket(r.err) {
				t.Fatalf("the refused write answered %v, want not-my-vbucket", r.err)
			}
			if vb.HighSeqno() != srcHigh {
				t.Errorf("high seqno moved to %d after the copy went %s at %d", vb.HighSeqno(), to, srcHigh)
			}
			// A copy that comes back (a replica, then promoted) takes
			// writes again.
			vb.SetState(Replica)
			vb.SetState(Active)
			if _, err := vb.Set(bg, "k", []byte("v"), 0, 0, 0, 0); err != nil {
				t.Errorf("after promotion: %v", err)
			}
		})
	}
}

func isNotMyVBucket(err error) bool {
	for e := err; e != nil; {
		if e == ErrNotMyVBucket {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// pull opens a stream from seqno 0 and pulls batches until it holds n
// mutations; a stream that never delivers them is closed after five
// seconds, which fails the test.
func pull(t *testing.T, vb *VBucket, name string, n int) []dcp.Mutation {
	t.Helper()
	s, err := vb.Producer().ResumeStream(name, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	watchdog := time.AfterFunc(5*time.Second, s.Close)
	defer watchdog.Stop()
	var muts []dcp.Mutation
	for len(muts) < n {
		batch, ok := s.Next()
		if !ok {
			t.Fatalf("stream %s ended after %d of %d mutations", name, len(muts), n)
		}
		muts = append(muts, batch...)
	}
	return muts
}

func TestDCPStreamSeesWrites(t *testing.T) {
	vb, _ := newVB(t, Active, Config{})
	s, err := vb.Producer().ResumeStream("consumer", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	vb.Set(bg, "a", []byte("1"), 0, 0, 0, 0)
	vb.Set(bg, "b", []byte("2"), 0, 0, 0, 0)
	vb.Do(bg, &Op{Code: memcproto.OpDelete, Key: "a"})
	muts, _ := s.Next() // all three were published before the pull
	if len(muts) != 3 {
		t.Fatalf("got %d mutations", len(muts))
	}
	if muts[0].Key != "a" || muts[1].Key != "b" || !muts[2].Deleted {
		t.Errorf("stream: %+v", muts)
	}
}

func TestDCPBackfillRestoresEvictedValues(t *testing.T) {
	vb, _ := newVB(t, Active, Config{})
	it, _ := vb.Set(bg, "cold", []byte("payload"), 0, 0, 0, 0)
	vb.WaitPersist(context.Background(), it.Seqno, 5*time.Second)
	vb.Table.EvictValue("cold")
	if m := pull(t, vb, "late", 1)[0]; string(m.Value) != "payload" {
		t.Errorf("backfill value = %q", m.Value)
	}
}

func TestGetBGFetchesEvictedValue(t *testing.T) {
	vb, _ := newVB(t, Active, Config{})
	it, _ := vb.Set(bg, "k", []byte("big-value"), 0, 0, 0, 0)
	vb.WaitPersist(context.Background(), it.Seqno, 5*time.Second)
	if freed := vb.Table.EvictValue("k"); freed <= 0 {
		t.Fatal("evict failed")
	}
	got, err := vb.Get(bg, "k", 0)
	if err != nil || string(got.Value) != "big-value" {
		t.Fatalf("bgfetch: %+v %v", got, err)
	}
	// The value is resident again.
	if _, err := vb.Table.Get("k", 0); err != nil {
		t.Errorf("value should be resident after bgfetch: %v", err)
	}
}

func TestDurabilityReplicateTo(t *testing.T) {
	vb, _ := newVB(t, Active, Config{})
	it, _ := vb.Set(bg, "k", []byte("v"), 0, 0, 0, 0)
	// No replicas acked: wait times out.
	if err := vb.WaitReplicas(context.Background(), it.Seqno, 1, 50*time.Millisecond); err != ErrTimeout {
		t.Fatalf("expected timeout, got %v", err)
	}
	// Ack arrives asynchronously.
	go func() {
		time.Sleep(20 * time.Millisecond)
		vb.AckReplica("replica-1", it.Seqno)
	}()
	if err := vb.WaitReplicas(context.Background(), it.Seqno, 1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Two replicas required but only one acked.
	if err := vb.WaitReplicas(context.Background(), it.Seqno, 2, 50*time.Millisecond); err != ErrTimeout {
		t.Fatalf("expected timeout for 2 replicas, got %v", err)
	}
}

func TestFlusherDedupsBatch(t *testing.T) {
	f, err := storage.Open(filepath.Join(t.TempDir(), "vb.couch"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// Slow disk so updates pile up in the queue and aggregate.
	vb := New(0, f, Active, Config{DiskDelay: 30 * time.Millisecond})
	defer vb.Close()
	var last cache.Item
	for i := 0; i < 200; i++ {
		last, _ = vb.Set(bg, "hot", []byte(fmt.Sprintf("v%d", i)), 0, 0, 0, 0)
	}
	if err := vb.WaitPersist(context.Background(), last.Seqno, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	// 200 updates but far fewer records hit disk thanks to aggregation.
	if st.Items != 1 {
		t.Fatalf("items = %d", st.Items)
	}
	if frag := f.Stats().Fragmentation(); frag > 0.9 {
		t.Errorf("aggregation ineffective: frag %v", frag)
	}
	rec, _ := f.Get("hot")
	if string(rec.Value) != "v199" {
		t.Errorf("final value = %q", rec.Value)
	}
}

func TestWarmUpAfterRestart(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "vb.couch")
	f, _ := storage.Open(path, false)
	vb := New(0, f, Active, Config{})
	var last cache.Item
	for i := 0; i < 20; i++ {
		last, _ = vb.Set(bg, fmt.Sprintf("k%02d", i), []byte(fmt.Sprintf("v%d", i)), 0, 0, 0, 0)
	}
	vb.Do(bg, &Op{Code: memcproto.OpDelete, Key: "k00"})
	vb.DrainDisk(5 * time.Second)
	_ = last
	vb.Close()
	f.Close()

	f2, err := storage.Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	vb2 := New(0, f2, Active, Config{})
	defer func() { vb2.Close(); f2.Close() }()
	if err := vb2.WarmUp(); err != nil {
		t.Fatal(err)
	}
	got, err := vb2.Get(bg, "k07", 0)
	if err != nil || string(got.Value) != "v7" {
		t.Fatalf("warmed doc: %v %v", got, err)
	}
	if _, err := vb2.Get(bg, "k00", 0); err != cache.ErrKeyNotFound {
		t.Errorf("deleted doc after warmup: %v", err)
	}
	// Seqno clock continues past the recovered history.
	it, _ := vb2.Set(bg, "new", []byte("nv"), 0, 0, 0, 0)
	if it.Seqno <= vb2.PersistedSeqno() && it.Seqno <= 21 {
		t.Errorf("seqno did not continue: %d", it.Seqno)
	}
}

func TestApplyReplicaPreservesMetadata(t *testing.T) {
	vb, _ := newVB(t, Replica, Config{})
	vb.ApplyReplica(dcp.Mutation{Key: "k", Value: []byte("v"), Seqno: 42, CAS: 7, RevSeqno: 3})
	meta, err := vb.Table.GetMeta("k")
	if err != nil || meta.CAS != 7 || meta.RevSeqno != 3 || meta.Seqno != 42 {
		t.Fatalf("replica meta: %+v %v", meta, err)
	}
	// Replica mutations are persisted too.
	if err := vb.WaitPersist(context.Background(), 42, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Promote and continue the seqno lineage.
	vb.SetState(Active)
	it, _ := vb.Set(bg, "k2", []byte("v2"), 0, 0, 0, 0)
	if it.Seqno != 43 {
		t.Errorf("promoted seqno = %d, want 43", it.Seqno)
	}
}

func TestDrainDiskAndClose(t *testing.T) {
	vb, f := newVB(t, Active, Config{})
	for i := 0; i < 50; i++ {
		vb.Set(bg, fmt.Sprintf("k%d", i), []byte("v"), 0, 0, 0, 0)
	}
	if err := vb.DrainDisk(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if f.HighSeqno() != 50 {
		t.Errorf("persisted high = %d", f.HighSeqno())
	}
	vb.Close()
	vb.Close() // idempotent
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Active: "active", Replica: "replica", Pending: "pending", Dead: "dead"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q", s, s.String())
		}
	}
}

func TestFullEvictionRoundTrip(t *testing.T) {
	f, err := storage.Open(filepath.Join(t.TempDir(), "vb.couch"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	vb := New(0, f, Active, Config{FullEviction: true})
	defer vb.Close()

	it, _ := vb.Set(bg, "k", []byte(`{"v": 1}`), 7, 0, 0, 0)
	vb.WaitPersist(context.Background(), it.Seqno, 5*time.Second)
	// Fully evict: key + metadata gone from memory.
	if !vb.Table.EvictItem("k", vb.PersistedSeqno(), 0) {
		t.Fatal("evict failed")
	}
	if _, err := vb.Table.GetMeta("k"); err != cache.ErrKeyNotFound {
		t.Fatal("item should be gone from cache")
	}
	// Read restores from disk with the original metadata.
	got, err := vb.Get(bg, "k", 0)
	if err != nil || string(got.Value) != `{"v": 1}` {
		t.Fatalf("get after full eviction: %+v %v", got, err)
	}
	if got.CAS != it.CAS || got.Seqno != it.Seqno || got.Flags != 7 {
		t.Fatalf("metadata lost: %+v vs %+v", got, it)
	}
}

func TestFullEvictionRevLineageContinues(t *testing.T) {
	f, _ := storage.Open(filepath.Join(t.TempDir(), "vb.couch"), false)
	defer f.Close()
	vb := New(0, f, Active, Config{FullEviction: true})
	defer vb.Close()
	it, _ := vb.Set(bg, "k", []byte("v1"), 0, 0, 0, 0)
	it2, _ := vb.Set(bg, "k", []byte("v2"), 0, 0, 0, 0)
	vb.WaitPersist(context.Background(), it2.Seqno, 5*time.Second)
	vb.Table.EvictItem("k", vb.PersistedSeqno(), 0)
	// A write to the evicted key must continue the rev lineage (3),
	// not restart it — XDCR conflict resolution depends on this.
	it3, err := vb.Set(bg, "k", []byte("v3"), 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if it3.RevSeqno != 3 {
		t.Fatalf("rev lineage broke: %d, want 3", it3.RevSeqno)
	}
	// CAS against the pre-eviction CAS still works.
	vb.WaitPersist(context.Background(), it3.Seqno, 5*time.Second)
	vb.Table.EvictItem("k", vb.PersistedSeqno(), 0)
	if _, err := vb.Set(bg, "k", []byte("v4"), 0, 0, it2.CAS, 0); err != cache.ErrCASMismatch {
		t.Fatalf("stale CAS on evicted key: %v", err)
	}
	if _, err := vb.Set(bg, "k", []byte("v4"), 0, 0, it3.CAS, 0); err != nil {
		t.Fatalf("fresh CAS on evicted key: %v", err)
	}
	// Add on an evicted key conflicts (the key exists on disk).
	vb.DrainDisk(5 * time.Second)
	vb.Table.EvictItem("k", vb.PersistedSeqno(), 0)
	if _, err := vb.Do(bg, &Op{Code: memcproto.OpAdd, Key: "k", Value: []byte("x")}); err != cache.ErrKeyExists {
		t.Fatalf("Add on evicted key: %v", err)
	}
	_ = it
}

func TestFullEvictionDCPSnapshotMergesDisk(t *testing.T) {
	f, _ := storage.Open(filepath.Join(t.TempDir(), "vb.couch"), false)
	defer f.Close()
	vb := New(0, f, Active, Config{FullEviction: true})
	defer vb.Close()
	for i := 0; i < 20; i++ {
		vb.Set(bg, fmt.Sprintf("k%02d", i), []byte("v"), 0, 0, 0, 0)
	}
	vb.DrainDisk(5 * time.Second)
	// Evict half the items entirely.
	for i := 0; i < 20; i += 2 {
		if !vb.Table.EvictItem(fmt.Sprintf("k%02d", i), vb.PersistedSeqno(), 0) {
			t.Fatalf("evict k%02d failed", i)
		}
	}
	// A late-joining DCP stream must still see all 20 documents.
	seen := map[string]bool{}
	for _, m := range pull(t, vb, "late", 20) {
		if seen[m.Key] {
			t.Fatalf("duplicate %s in merged snapshot", m.Key)
		}
		seen[m.Key] = true
	}
}

// TestDedupBatchKeepsNewestPerKey runs both of dedupBatch's ways to
// find a superseded record (the pairwise scan of a small batch, the map
// of a large one, reused across batches as the flusher does) against
// the definition: of each key the last record survives, and the
// survivors keep their order.
func TestDedupBatchKeepsNewestPerKey(t *testing.T) {
	index := map[string]int{}
	for n := 0; n <= 3*dedupScanMax; n++ {
		for _, keys := range []int{1, 3, n + 1} {
			batch := make([]storage.Record, n)
			last := map[string]uint64{}
			for i := range batch {
				key := fmt.Sprintf("k%d", (i*7+n)%keys)
				batch[i] = storage.Record{Meta: storage.Meta{Key: key, Seqno: uint64(i + 1)}}
				last[key] = uint64(i + 1)
			}
			out := dedupBatch(batch, index)
			clear(index)
			if len(out) != len(last) {
				t.Fatalf("%d records over %d keys: %d survive, want %d", n, keys, len(out), len(last))
			}
			for i, r := range out {
				if r.Seqno != last[r.Key] || i > 0 && out[i-1].Seqno >= r.Seqno {
					t.Fatalf("%d records over %d keys: survivor %d is %s@%d (newest @%d, previous @%d)", n, keys, i, r.Key, r.Seqno, last[r.Key], out[max(i-1, 0)].Seqno)
				}
			}
		}
	}
}
