package cache

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

var bg = context.Background()

func TestSetGetRoundTrip(t *testing.T) {
	h := NewHashTable()
	it, err := h.Set(bg, "k1", []byte(`{"a":1}`), 7, 0, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if it.Seqno != 1 || it.RevSeqno != 1 || it.CAS == 0 {
		t.Errorf("meta wrong: %+v", it)
	}
	got, err := h.Get("k1", 100)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Value) != `{"a":1}` || got.Flags != 7 {
		t.Errorf("got %+v", got)
	}
}

func TestGetMissing(t *testing.T) {
	h := NewHashTable()
	if _, err := h.Get("nope", 0); err != ErrKeyNotFound {
		t.Errorf("err = %v", err)
	}
}

func TestSeqnoMonotonicPerMutation(t *testing.T) {
	h := NewHashTable()
	var last uint64
	for i := 0; i < 10; i++ {
		it, err := h.Set(bg, fmt.Sprintf("k%d", i%3), []byte("v"), 0, 0, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if it.Seqno != last+1 {
			t.Fatalf("seqno %d after %d", it.Seqno, last)
		}
		last = it.Seqno
	}
	if h.HighSeqno() != 10 {
		t.Errorf("HighSeqno = %d", h.HighSeqno())
	}
}

func TestCASOptimisticLocking(t *testing.T) {
	h := NewHashTable()
	it1, _ := h.Set(bg, "doc", []byte("v1"), 0, 0, 0, 0)
	// Another client sneaks in a write.
	it2, _ := h.Set(bg, "doc", []byte("v2"), 0, 0, 0, 0)
	// Original client's CAS is now stale.
	if _, err := h.Set(bg, "doc", []byte("v3"), 0, 0, it1.CAS, 0); err != ErrCASMismatch {
		t.Fatalf("stale CAS should fail: %v", err)
	}
	// Re-read and retry, per the paper's protocol.
	if _, err := h.Set(bg, "doc", []byte("v3"), 0, 0, it2.CAS, 0); err != nil {
		t.Fatalf("fresh CAS should succeed: %v", err)
	}
	got, _ := h.Get("doc", 0)
	if string(got.Value) != "v3" {
		t.Errorf("value = %q", got.Value)
	}
	if got.RevSeqno != 3 {
		t.Errorf("revSeqno = %d, want 3", got.RevSeqno)
	}
}

func TestCASOnMissingKey(t *testing.T) {
	h := NewHashTable()
	if _, err := h.Set(bg, "ghost", []byte("v"), 0, 0, 42, 0); err != ErrKeyNotFound {
		t.Errorf("err = %v", err)
	}
}

func TestAddReplaceSemantics(t *testing.T) {
	h := NewHashTable()
	if _, err := h.Replace(bg, "k", []byte("v"), 0, 0, 0, 0); err != ErrKeyNotFound {
		t.Errorf("Replace on missing: %v", err)
	}
	if _, err := h.Add(bg, "k", []byte("v"), 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Add(bg, "k", []byte("v2"), 0, 0, 0); err != ErrKeyExists {
		t.Errorf("Add on existing: %v", err)
	}
	if _, err := h.Replace(bg, "k", []byte("v2"), 0, 0, 0, 0); err != nil {
		t.Errorf("Replace on existing: %v", err)
	}
}

func TestDeleteCreatesTombstone(t *testing.T) {
	h := NewHashTable()
	h.Set(bg, "k", []byte("v"), 0, 0, 0, 0)
	del, err := h.Delete(bg, "k", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !del.Deleted || del.Seqno != 2 || del.RevSeqno != 2 {
		t.Errorf("tombstone meta: %+v", del)
	}
	if _, err := h.Get("k", 0); err != ErrKeyNotFound {
		t.Errorf("Get after delete: %v", err)
	}
	// Metadata survives for conflict resolution.
	meta, err := h.GetMeta("k")
	if err != nil || !meta.Deleted {
		t.Errorf("GetMeta after delete: %+v, %v", meta, err)
	}
	// Re-creating continues the rev lineage.
	it, _ := h.Set(bg, "k", []byte("v2"), 0, 0, 0, 0)
	if it.RevSeqno != 3 {
		t.Errorf("revSeqno after resurrect = %d, want 3", it.RevSeqno)
	}
	st := h.Stats()
	if st.Items != 1 || st.Tombstones != 0 {
		t.Errorf("stats after resurrect: %+v", st)
	}
}

func TestDeleteWithWrongCAS(t *testing.T) {
	h := NewHashTable()
	h.Set(bg, "k", []byte("v"), 0, 0, 0, 0)
	if _, err := h.Delete(bg, "k", 999999, 0); err != ErrCASMismatch {
		t.Errorf("err = %v", err)
	}
	if _, err := h.Delete(bg, "zz", 0, 0); err != ErrKeyNotFound {
		t.Errorf("err = %v", err)
	}
}

func TestExpiryLazyReap(t *testing.T) {
	h := NewHashTable()
	h.Set(bg, "k", []byte("v"), 0, 50, 0, 10) // expires at t=50
	if _, err := h.Get("k", 49); err != nil {
		t.Fatalf("not yet expired: %v", err)
	}
	if _, err := h.Get("k", 50); err != ErrKeyNotFound {
		t.Fatalf("expired: %v", err)
	}
	// The reap was a real deletion: tombstone with a new seqno.
	meta, err := h.GetMeta("k")
	if err != nil || !meta.Deleted {
		t.Fatalf("expiry should tombstone: %+v %v", meta, err)
	}
	if meta.Seqno != 2 {
		t.Errorf("expiry delete seqno = %d", meta.Seqno)
	}
}

func TestSetOverwritesExpired(t *testing.T) {
	h := NewHashTable()
	h.Set(bg, "k", []byte("v"), 0, 50, 0, 10)
	// CAS write against an expired doc fails as not-found.
	it, _ := h.GetMeta("k")
	if _, err := h.Set(bg, "k", []byte("v2"), 0, 0, it.CAS, 60); err != ErrKeyNotFound {
		t.Errorf("CAS set on expired doc: %v", err)
	}
	if _, err := h.Set(bg, "k", []byte("v2"), 0, 0, 0, 60); err != nil {
		t.Errorf("plain set on expired doc: %v", err)
	}
}

func TestTouch(t *testing.T) {
	h := NewHashTable()
	h.Set(bg, "k", []byte("v"), 0, 50, 0, 10)
	if _, err := h.Touch(bg, "k", 500, 20, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get("k", 100); err != nil {
		t.Errorf("doc should survive after touch: %v", err)
	}
	if _, err := h.Touch(bg, "zz", 10, 0, nil); err != ErrKeyNotFound {
		t.Errorf("touch missing: %v", err)
	}
}

func TestGetAndLock(t *testing.T) {
	h := NewHashTable()
	h.Set(bg, "k", []byte("v"), 0, 0, 0, 100)
	locked, err := h.GetAndLock("k", 15, 100, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Second locker fails.
	if _, err := h.GetAndLock("k", 15, 101, nil); err != ErrLocked {
		t.Errorf("double lock: %v", err)
	}
	// Plain writes and deletes are blocked.
	if _, err := h.Set(bg, "k", []byte("x"), 0, 0, 0, 101); err != ErrLocked {
		t.Errorf("set while locked: %v", err)
	}
	if _, err := h.Delete(bg, "k", 0, 101); err != ErrLocked {
		t.Errorf("delete while locked: %v", err)
	}
	if _, err := h.Touch(bg, "k", 10, 101, nil); err != ErrLocked {
		t.Errorf("touch while locked: %v", err)
	}
	// Write with the lock token succeeds and releases the lock.
	if _, err := h.Set(bg, "k", []byte("x"), 0, 0, locked.CAS, 101); err != nil {
		t.Fatalf("set with lock CAS: %v", err)
	}
	if _, err := h.Set(bg, "k", []byte("y"), 0, 0, 0, 102); err != nil {
		t.Errorf("lock should be released after CAS write: %v", err)
	}
}

func TestLockTimesOut(t *testing.T) {
	h := NewHashTable()
	h.Set(bg, "k", []byte("v"), 0, 0, 0, 100)
	h.GetAndLock("k", 15, 100, nil)
	// "This lock will be released after a certain timeout to avoid
	// deadlocks."
	if _, err := h.Set(bg, "k", []byte("x"), 0, 0, 0, 115); err != nil {
		t.Errorf("lock should expire at t=115: %v", err)
	}
}

// TestZeroNowIsTheWallClock: now 0, what a client sends, is the
// serving node's clock, read for an item with a TTL and for a lock.
// Read as 1970, or not read at all, it finds an expired item and lets a
// lock lapse at once.
func TestZeroNowIsTheWallClock(t *testing.T) {
	h := NewHashTable()
	wall := time.Now().Unix()
	h.Set(bg, "past", []byte("v"), 0, wall-1, 0, wall-10)
	h.Set(bg, "future", []byte("v"), 0, wall+3600, 0, wall-10)
	if _, err := h.Get("past", 0); err != ErrKeyNotFound {
		t.Errorf("an item expired on the wall clock, got under now 0: %v, want ErrKeyNotFound", err)
	}
	if _, err := h.Get("future", 0); err != nil {
		t.Errorf("an item live on the wall clock, got under now 0: %v", err)
	}
}

func TestZeroNowLocksFromTheWallClock(t *testing.T) {
	h := NewHashTable()
	h.Set(bg, "k", []byte("v"), 0, 0, 0, 0)
	wall := time.Now().Unix()
	if _, err := h.GetAndLock("k", 15, 0, nil); err != nil {
		t.Fatal(err)
	}
	for _, now := range []int64{0, wall + 10} {
		if _, err := h.Set(bg, "k", []byte("x"), 0, 0, 0, now); err != ErrLocked {
			t.Errorf("Set without the lock CAS at now %d (wall clock %d): %v, want ErrLocked", now, wall, err)
		}
	}
	if _, err := h.Set(bg, "k", []byte("x"), 0, 0, 0, wall+17); err != nil {
		t.Errorf("Set past the lock's 15 s: %v", err)
	}
}

func TestUnlock(t *testing.T) {
	h := NewHashTable()
	h.Set(bg, "k", []byte("v"), 0, 0, 0, 100)
	locked, _ := h.GetAndLock("k", 15, 100, nil)
	if err := h.Unlock("k", 123456, 101); err != ErrLocked {
		t.Errorf("unlock with wrong token: %v", err)
	}
	if err := h.Unlock("k", locked.CAS, 101); err != nil {
		t.Fatal(err)
	}
	if err := h.Unlock("k", locked.CAS, 101); err != ErrNotLocked {
		t.Errorf("double unlock: %v", err)
	}
	if _, err := h.Set(bg, "k", []byte("x"), 0, 0, 0, 101); err != nil {
		t.Errorf("set after unlock: %v", err)
	}
	if err := h.Unlock("zz", 1, 0); err != ErrKeyNotFound {
		t.Errorf("unlock missing: %v", err)
	}
}

func TestApplyMetaReplicaPath(t *testing.T) {
	h := NewHashTable()
	h.ApplyMeta(bg, Item{Key: "k", Value: []byte("v"), CAS: 77, RevSeqno: 5, Seqno: 42})
	got, err := h.Get("k", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.CAS != 77 || got.RevSeqno != 5 || got.Seqno != 42 {
		t.Errorf("meta not preserved: %+v", got)
	}
	if h.HighSeqno() != 42 {
		t.Errorf("seqno clock should follow applied seqno: %d", h.HighSeqno())
	}
	// Promotion: new active continues numbering after the replica state.
	it, _ := h.Set(bg, "k2", []byte("v"), 0, 0, 0, 0)
	if it.Seqno != 43 {
		t.Errorf("next seqno = %d, want 43", it.Seqno)
	}
}

func TestEvictAndRestoreValue(t *testing.T) {
	h := NewHashTable()
	it, _ := h.Set(bg, "k", []byte("payload"), 0, 0, 0, 0)
	if freed := h.EvictValue("k"); freed <= 0 {
		t.Fatal("evict freed nothing")
	}
	if _, err := h.Get("k", 0); err != ErrValueEvicted {
		t.Fatalf("expected ErrValueEvicted, got %v", err)
	}
	if meta, err := h.GetMeta("k"); err != nil || meta.CAS != it.CAS {
		t.Error("metadata should survive eviction")
	}
	if h.Stats().NonResident != 1 {
		t.Error("stats should count non-resident item")
	}
	mem := h.Stats().MemUsed
	got, err := h.GetWith("k", 0, &Fetched{Seqno: it.Seqno, Value: []byte("payload")})
	if err != nil || string(got.Value) != "payload" {
		t.Errorf("after restore: %+v %v", got, err)
	}
	if st := h.Stats(); st.NonResident != 0 || st.MemUsed != mem+int64(len("payload")) {
		t.Errorf("restore accounting: %+v (mem before %d)", st, mem)
	}
	if got, err = h.Get("k", 0); err != nil || string(got.Value) != "payload" {
		t.Errorf("the restored value did not stay: %+v %v", got, err)
	}
	// A value fetched for another revision is ignored.
	h.EvictValue("k")
	if _, err := h.GetWith("k", 0, &Fetched{Seqno: it.Seqno + 1, Value: []byte("other")}); err != ErrValueEvicted {
		t.Error("stale restore should be ignored")
	}
}

// TestGetAndLockChecksResidencyFirst: an arm that answers
// ErrValueEvicted must have changed nothing, or the caller's re-run
// would find the document locked by a token nobody holds.
func TestGetAndLockChecksResidencyFirst(t *testing.T) {
	h := NewHashTable()
	it, _ := h.Set(bg, "k", []byte("v"), 0, 0, 0, 100)
	h.EvictValue("k")
	if _, err := h.GetAndLock("k", 15, 100, nil); err != ErrValueEvicted {
		t.Fatalf("GetAndLock on an evicted value: %v, want ErrValueEvicted", err)
	}
	if meta, _ := h.GetMeta("k"); meta.CAS != it.CAS {
		t.Errorf("CAS moved from %d to %d on a failed lock", it.CAS, meta.CAS)
	}
	if err := h.Unlock("k", it.CAS, 101); err != ErrNotLocked {
		t.Errorf("Unlock after the failed lock: %v, want ErrNotLocked", err)
	}
	locked, err := h.GetAndLock("k", 15, 100, &Fetched{Seqno: it.Seqno, Value: []byte("v")})
	if err != nil || string(locked.Value) != "v" || locked.CAS == it.CAS {
		t.Fatalf("GetAndLock with the fetched value = %+v, %v", locked, err)
	}
	if err := h.Unlock("k", locked.CAS, 101); err != nil {
		t.Errorf("Unlock with the returned token: %v", err)
	}
}

func TestOnMutateOrderedFeed(t *testing.T) {
	h := NewHashTable()
	var seqnos []uint64
	h.OnMutate(func(_ context.Context, it Item) { seqnos = append(seqnos, it.Seqno) })
	h.Set(bg, "a", []byte("1"), 0, 0, 0, 0)
	h.Set(bg, "b", []byte("2"), 0, 0, 0, 0)
	h.Delete(bg, "a", 0, 0)
	if len(seqnos) != 3 {
		t.Fatalf("observer saw %d mutations", len(seqnos))
	}
	for i, s := range seqnos {
		if s != uint64(i+1) {
			t.Fatalf("mutation %d has seqno %d", i, s)
		}
	}
}

func TestConcurrentMutationsKeepInvariants(t *testing.T) {
	h := NewHashTable()
	var mu sync.Mutex
	var feed []uint64
	h.OnMutate(func(_ context.Context, it Item) {
		mu.Lock()
		feed = append(feed, it.Seqno)
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				key := fmt.Sprintf("k%d", (g*50+i)%17)
				switch i % 3 {
				case 0, 1:
					h.Set(bg, key, []byte("v"), 0, 0, 0, 0)
				case 2:
					h.Delete(bg, key, 0, 0)
				}
			}
		}(g)
	}
	wg.Wait()
	if uint64(len(feed)) != h.HighSeqno() {
		t.Fatalf("feed length %d != high seqno %d", len(feed), h.HighSeqno())
	}
	// The ordered feed must be exactly 1..N in order.
	for i, s := range feed {
		if s != uint64(i+1) {
			t.Fatalf("feed[%d] = %d; mutation feed out of order", i, s)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	h := NewHashTable()
	if st := h.Stats(); st.Items != 0 || st.MemUsed != 0 {
		t.Fatalf("empty stats: %+v", st)
	}
	h.Set(bg, "a", []byte("xxxx"), 0, 0, 0, 0)
	h.Set(bg, "b", []byte("yyyy"), 0, 0, 0, 0)
	st := h.Stats()
	if st.Items != 2 || st.MemUsed <= 0 {
		t.Errorf("stats: %+v", st)
	}
	h.Delete(bg, "a", 0, 0)
	st2 := h.Stats()
	if st2.Items != 1 || st2.Tombstones != 1 {
		t.Errorf("stats after delete: %+v", st2)
	}
	if st2.MemUsed >= st.MemUsed {
		t.Error("tombstone should use less memory than live doc")
	}
}

func TestPagerEvictsUnderPressure(t *testing.T) {
	h := NewHashTable()
	val := make([]byte, 1000)
	for i := 0; i < 100; i++ {
		h.Set(bg, fmt.Sprintf("doc-%03d", i), val, 0, 0, 0, 0)
	}
	tables := []*HashTable{h}
	used := MemUsed(tables)
	p := &Pager{Quota: Quota{Bytes: used / 2}}
	if !p.NeedsEviction(tables) {
		t.Fatal("should need eviction")
	}
	// Nothing persisted yet: pager must not evict dirty values.
	if n := p.Run(tables, []uint64{0}, 0); n != 0 {
		t.Fatalf("evicted %d dirty values", n)
	}
	// Everything persisted: pager can now evict.
	n := p.Run(tables, []uint64{h.HighSeqno()}, 0)
	if n == 0 {
		t.Fatal("pager evicted nothing")
	}
	if MemUsed(tables) > p.Quota.high() {
		t.Errorf("still above high watermark after pager: %d > %d", MemUsed(tables), p.Quota.high())
	}
	// Keys and metadata are all still present.
	st := h.Stats()
	if st.Items != 100 {
		t.Errorf("eviction lost items: %+v", st)
	}
}

func TestPagerSkipsRecentlyUsed(t *testing.T) {
	h := NewHashTable()
	val := make([]byte, 1000)
	for i := 0; i < 20; i++ {
		h.Set(bg, fmt.Sprintf("doc-%02d", i), val, 0, 0, 0, 0)
	}
	// Heat up doc-00 by touching it during pager passes.
	p := &Pager{Quota: Quota{Bytes: 1}} // force maximal eviction
	for i := 0; i < 3; i++ {
		h.Get("doc-00", 0)
		p.Run([]*HashTable{h}, []uint64{h.HighSeqno()}, 0)
	}
	if _, err := h.Get("doc-01", 0); !errors.Is(err, ErrValueEvicted) {
		t.Errorf("cold doc should be evicted: %v", err)
	}
}

func TestExpiryPager(t *testing.T) {
	h := NewHashTable()
	h.Set(bg, "stay", []byte("v"), 0, 0, 0, 0)
	h.Set(bg, "go1", []byte("v"), 0, 50, 0, 0)
	h.Set(bg, "go2", []byte("v"), 0, 60, 0, 0)
	if n := ExpiryPager([]*HashTable{h}, 100); n != 2 {
		t.Fatalf("reaped %d, want 2", n)
	}
	if st := h.Stats(); st.Items != 1 || st.Tombstones != 2 {
		t.Errorf("stats after expiry pager: %+v", st)
	}
}

func TestNextCASMonotone(t *testing.T) {
	a := NextCAS()
	b := NextCAS()
	if b <= a {
		t.Error("CAS must increase")
	}
}

func TestAppendPrepend(t *testing.T) {
	h := NewHashTable()
	h.Set(bg, "k", []byte("middle"), 0, 0, 0, 0)
	if _, err := h.Append(bg, "k", []byte("-end"), 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Prepend(bg, "k", []byte("start-"), 0, 0, nil); err != nil {
		t.Fatal(err)
	}
	it, _ := h.Get("k", 0)
	if string(it.Value) != "start-middle-end" {
		t.Fatalf("value: %q", it.Value)
	}
	if it.RevSeqno != 3 {
		t.Errorf("concat ops must be real mutations: rev %d", it.RevSeqno)
	}
	if _, err := h.Append(bg, "ghost", []byte("x"), 0, 0, nil); err != ErrKeyNotFound {
		t.Errorf("append missing: %v", err)
	}
	// CAS discipline.
	if _, err := h.Append(bg, "k", []byte("x"), 12345, 0, nil); err != ErrCASMismatch {
		t.Errorf("stale cas: %v", err)
	}
}
