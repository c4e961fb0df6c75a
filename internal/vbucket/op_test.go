package vbucket

import (
	"context"
	"errors"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"couchgo/internal/cache"
	"couchgo/internal/memcproto"
	"couchgo/internal/metrics"
	"couchgo/internal/storage"
	"couchgo/internal/trace"
)

// persisted writes key and waits until the flusher has it on disk, so
// the value may be evicted.
func persisted(t testing.TB, vb *VBucket, key, value string) cache.Item {
	t.Helper()
	it, err := vb.Set(bg, key, []byte(value), 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := vb.WaitPersist(bg, it.Seqno, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	return it
}

// TestEvictRaceNeverSurfaces is ROADMAP's evict race, written once: the
// pager may evict a value at any moment, including between Do's fetch
// and the arm's second run, and no op may notice. Every value handed
// back must be one a writer wrote, no append may be lost, and every
// restoration must be counted, whichever op caused it.
func TestEvictRaceNeverSurfaces(t *testing.T) {
	vb, _ := newVB(t, Active, Config{})
	const key, base = "k", `{"a":1}`
	persisted(t, vb, key, base)

	// One restoration per eviction, counted for every op that needs the
	// value (subdoc_get used to restore without counting).
	for _, op := range []Op{
		{Code: memcproto.OpGet, Key: key},
		{Code: memcproto.OpSubdocGet, Key: key, Path: "a"},
		{Code: memcproto.OpAppendVal, Key: key, Value: []byte(" ")},
	} {
		if vb.Table.EvictValue(key) == 0 {
			t.Fatalf("%s: nothing to evict", op.Code)
		}
		before := mBgFetches.Value()
		if _, err := vb.Do(bg, &op); err != nil {
			t.Fatalf("%s on an evicted value: %v", op.Code, err)
		}
		if n := mBgFetches.Value() - before; n != 1 {
			t.Errorf("%s counted %d bgfetches for one restoration", op.Code, n)
		}
		if err := vb.DrainDisk(5 * time.Second); err != nil {
			t.Fatal(err)
		}
	}

	const workers, rounds = 8, 200
	stop := make(chan struct{})
	var evictions, appends atomic.Uint64
	var pager, ops sync.WaitGroup
	pager.Add(1)
	go func() {
		defer pager.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// The pager's own rule: only a clean value may go.
			if it, err := vb.Table.GetMeta(key); err == nil && it.Seqno <= vb.PersistedSeqno() && vb.Table.EvictValue(key) > 0 {
				evictions.Add(1)
			}
		}
	}()
	before := mBgFetches.Value()
	for w := 0; w < workers; w++ {
		ops.Add(1)
		go func() {
			defer ops.Done()
			for i := 0; i < rounds; i++ {
				res, err := vb.Do(bg, &Op{Code: memcproto.OpGet, Key: key})
				if v := string(res.Item.Value); err != nil || strings.TrimRight(v, " ") != base {
					t.Errorf("get = %q, %v", v, err)
				}
				if _, err := vb.Do(bg, &Op{Code: memcproto.OpAppendVal, Key: key, Value: []byte(" ")}); err != nil {
					t.Errorf("append: %v", err)
				} else {
					appends.Add(1)
				}
				if res, err = vb.Do(bg, &Op{Code: memcproto.OpSubdocGet, Key: key, Path: "a"}); err != nil || res.Doc != 1.0 {
					t.Errorf("subdoc_get = %v, %v", res.Doc, err)
				}
			}
		}()
	}
	ops.Wait()
	close(stop)
	pager.Wait()

	got, err := vb.Get(bg, key, 0)
	if want := base + strings.Repeat(" ", 1+int(appends.Load())); err != nil || string(got.Value) != want {
		t.Errorf("final value is %d bytes (%v), want %d: an append was lost or built on a stale value", len(got.Value), err, len(want))
	}
	// Each eviction but the last was followed by an op that needed the
	// value back.
	if n, ev := mBgFetches.Value()-before, evictions.Load(); ev == 0 || n+1 < ev {
		t.Errorf("%d evictions but only %d bgfetches counted", ev, n)
	}
}

// TestRestoreSeesOneRevision: under FullEviction a key is restored
// while a writer keeps replacing its record on disk (a tombstone now and
// then). What Restore is handed must be one revision: the CAS, seqno
// and value of the same record, not the metadata of one and the value
// of a later one.
func TestRestoreSeesOneRevision(t *testing.T) {
	vb, f := newVB(t, Active, Config{FullEviction: true})
	const key = "k"
	write := func(seqno uint64) error {
		rec := storage.Record{Meta: storage.Meta{Key: key, Seqno: seqno, CAS: seqno * 7, RevSeqno: seqno, Deleted: seqno%5 == 0}}
		if !rec.Deleted {
			rec.Value = []byte(strconv.FormatUint(seqno, 10))
		}
		return f.Append([]storage.Record{rec})
	}
	if err := write(1); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for seqno := uint64(2); ; seqno++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := write(seqno); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 5000 && !t.Failed(); i++ {
		if restored, err := vb.restoreItem(key, &cache.Fetched{}); err != nil || !restored {
			t.Errorf("restoration %d: %v, %v", i, restored, err)
			break
		}
		it, err := vb.Table.GetMeta(key)
		want := strconv.FormatUint(it.Seqno, 10)
		if it.Deleted {
			want = ""
		}
		if err != nil || it.CAS != it.Seqno*7 || it.Deleted != (it.Seqno%5 == 0) || string(it.Value) != want {
			t.Errorf("restoration %d: seqno %d cas %d deleted %v value %q, %v: not one revision", i, it.Seqno, it.CAS, it.Deleted, it.Value, err)
		}
		if !vb.Table.EvictItem(key, it.Seqno, 0) {
			t.Errorf("restoration %d: could not evict the item again", i)
		}
	}
	close(stop)
	wg.Wait()
}

// TestDoThroughEvictedLock: GetAndLock on an evicted value hands back
// the value and a token Unlock accepts (it used to leave the document
// locked by a token nobody received).
func TestDoThroughEvictedLock(t *testing.T) {
	vb, _ := newVB(t, Active, Config{})
	persisted(t, vb, "k", "v")
	vb.Table.EvictValue("k")
	res, err := vb.Do(bg, &Op{Code: memcproto.OpGetAndLock, Key: "k", Expiry: 30, Now: 100})
	if err != nil || string(res.Item.Value) != "v" {
		t.Fatalf("getandlock = %+v, %v", res.Item, err)
	}
	if _, err := vb.Do(bg, &Op{Code: memcproto.OpUnlock, Key: "k", CAS: res.Item.CAS, Now: 101}); err != nil {
		t.Errorf("unlock with the returned token: %v", err)
	}
}

// TestOnlyPersistToSkipsTheRound: the flusher appends a batch waited,
// so that its fsync skips the device round, only when a PersistTo op
// waits on it. A plain Set, a ReplicateTo-only Set and DrainDisk leave
// their batches to the round; the traced commit of a PersistTo Set says
// which path it took.
func TestOnlyPersistToSkipsTheRound(t *testing.T) {
	st, err := storage.NewStore(t.TempDir(), true)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	f, err := st.VB(0)
	if err != nil {
		t.Fatal(err)
	}
	vb := New(0, f, Active, Config{})
	t.Cleanup(vb.Close)
	vb.AckReplica("replica", math.MaxUint64) // every ReplicateTo wait is met at once
	tracer := trace.New()
	tracer.SetRate(1)
	waitedSyncs := metrics.Default.Counter("couchgo_storage_waited_syncs_total")
	before := waitedSyncs.Value()

	// set runs a traced Set and then drains the disk; it returns whether
	// the Set came back persisted and the commit span's waited annotation.
	set := func(dur DurabilityOptions) (persisted bool, waited string) {
		t.Helper()
		ctx, root := tracer.Start(bg, "set")
		res, err := vb.Do(ctx, &Op{Code: memcproto.OpSet, Key: "k", Value: []byte("v"), Dur: dur})
		if err != nil {
			t.Fatalf("set %+v: %v", dur, err)
		}
		persisted = vb.PersistedSeqno() >= res.Item.Seqno
		if err := vb.DrainDisk(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		root.End()
		sp := spanNamed(root.Trace().Tree(), "storage:commit")
		if sp == nil {
			t.Fatalf("set %+v: no storage:commit span", dur)
		}
		for _, a := range sp.Annotations {
			if a.Key == "waited" {
				waited = a.Value
			}
		}
		return persisted, waited
	}

	for _, dur := range []DurabilityOptions{{}, {ReplicateTo: 1}} {
		if _, waited := set(dur); waited != "" {
			t.Errorf("set %+v: commit span waited=%q, want no annotation", dur, waited)
		}
	}
	if got := waitedSyncs.Value() - before; got != 0 {
		t.Fatalf("plain and ReplicateTo sets and DrainDisk made %d waited syncs, want 0", got)
	}
	persisted, waited := set(DurabilityOptions{PersistTo: true})
	if !persisted {
		t.Error("a PersistTo set returned before its mutation was persisted")
	}
	if waited != "true" {
		t.Errorf("PersistTo commit span waited=%q, want true", waited)
	}
	if got := waitedSyncs.Value() - before; got != 1 {
		t.Errorf("a PersistTo set made %d waited syncs, want 1", got)
	}
}

// spanNamed finds the first span of that name in a rendered trace.
func spanNamed(n *trace.Node, name string) *trace.Node {
	if n == nil || n.Name == name {
		return n
	}
	for _, c := range n.Children {
		if hit := spanNamed(c, name); hit != nil {
			return hit
		}
	}
	return nil
}

// TestEveryRowIsObserved pins what the one preamble gives every row: a
// cache:<row> span that records the op's error and the restoration it
// caused, an exact ops counter and a latency series.
func TestEveryRowIsObserved(t *testing.T) {
	vb, _ := newVB(t, Active, Config{})
	persisted(t, vb, "k", `{"n":1}`)
	tracer := trace.New()
	tracer.SetRate(1)
	ctx, root := tracer.Start(bg, "test")

	vb.Table.EvictValue("k")
	for _, tc := range []struct {
		op      Op
		span    string
		wantErr error
		bgfetch bool
	}{
		{Op{Code: memcproto.OpReplace, Key: "k", Value: []byte(`{}`), CAS: 1 << 50}, "cache:replace", cache.ErrCASMismatch, false},
		{Op{Code: memcproto.OpSubdocSet, Key: "k", Path: "n.x", Doc: 1.0}, "cache:subdoc:set", cache.ErrPathMismatch, true},
	} {
		if _, err := vb.Do(ctx, &tc.op); !errors.Is(err, tc.wantErr) {
			t.Fatalf("%s: err = %v, want %v", tc.op.Code, err, tc.wantErr)
		}
		sp := spanNamed(root.Trace().Tree(), tc.span)
		if sp == nil {
			t.Fatalf("%s opened no %s span", tc.op.Code, tc.span)
		}
		if !strings.Contains(sp.Error, tc.wantErr.Error()) {
			t.Errorf("%s span error = %q, want %q", tc.span, sp.Error, tc.wantErr)
		}
		fetched := false
		for _, a := range sp.Annotations {
			fetched = fetched || (a.Key == "bgfetch" && a.Value == "true")
		}
		if fetched != tc.bgfetch {
			t.Errorf("%s span bgfetch annotation = %v, want %v", tc.span, fetched, tc.bgfetch)
		}
	}
	root.End()

	for _, spec := range memcproto.KVOps() {
		ops := metrics.Default.Counter("couchgo_kv_ops_total", "op", spec.Name)
		before := ops.Value()
		vb.Do(bg, &Op{Code: spec.Code, Key: "k", Path: "n"})
		if ops.Value() != before+1 || kvSeries[spec.Code].lat == nil {
			t.Errorf("couchgo_kv_ops_total{op=%q} did not count the op, or the row has no latency series", spec.Name)
		}
	}
	before := casSeries.ops.Value()
	vb.Set(bg, "k", []byte(`{}`), 0, 0, 1<<50, 0)
	if casSeries.ops.Value() != before+1 {
		t.Error(`a set carrying a CAS check must count under op="cas"`)
	}
}

// TestDoZeroAlloc gates the executor's own cost: neither Op nor Result
// escapes, and the preamble (row lookup, span, series, residency rule)
// allocates nothing. The set budget is TestSetPublishAllocBudget's.
func TestDoZeroAlloc(t *testing.T) {
	vb, _ := newVB(t, Active, Config{})
	value := make([]byte, 1024)
	if _, err := vb.Set(bg, "hot", value, 0, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	var res Result
	var err error
	if n := testing.AllocsPerRun(1000, func() {
		res, err = vb.Do(bg, &Op{Code: memcproto.OpGet, Key: "hot", Now: 1700000000})
	}); n != 0 || err != nil || len(res.Item.Value) != len(value) {
		t.Errorf("resident Do(get) allocates %.1f times per op (err %v), want 0", n, err)
	}
	if n := testing.AllocsPerRun(500, func() {
		res, err = vb.Do(bg, &Op{Code: memcproto.OpSet, Key: "hot", Value: value})
	}); n > 16 || err != nil {
		t.Errorf("Do(set) allocates %.1f times per op (err %v), budget 16", n, err)
	}
}

func BenchmarkDoGet(b *testing.B) {
	vb, _ := newVB(b, Active, Config{})
	persisted(b, vb, "user4316891766", strings.Repeat("x", 1024))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vb.Do(bg, &Op{Code: memcproto.OpGet, Key: "user4316891766"}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDoSet(b *testing.B) {
	vb, _ := newVB(b, Active, Config{})
	value := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vb.Do(bg, &Op{Code: memcproto.OpSet, Key: "user4316891766", Value: value}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDoGetEvicted is the residency rule's second half: evict,
// miss, fetch from storage, run the arm again.
func BenchmarkDoGetEvicted(b *testing.B) {
	vb, _ := newVB(b, Active, Config{})
	persisted(b, vb, "user4316891766", strings.Repeat("x", 1024))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vb.Table.EvictValue("user4316891766")
		if _, err := vb.Do(bg, &Op{Code: memcproto.OpGet, Key: "user4316891766"}); err != nil {
			b.Fatal(err)
		}
	}
}

// hookCtx is a caller's context that runs onValue at its first Value
// call (Do reads the span there, after its state check and before the
// arm) and onErr at its first Err call (Do checks the context between a
// miss and its fetch). From the ninth Err call on it reports Canceled,
// so an op that keeps missing fails instead of spinning.
type hookCtx struct {
	context.Context
	onValue, onErr func()
	values, errs   int
}

func (c *hookCtx) Value(key any) any {
	if c.values++; c.values == 1 && c.onValue != nil {
		c.onValue()
	}
	return c.Context.Value(key)
}

func (c *hookCtx) Err() error {
	if c.errs++; c.errs == 1 && c.onErr != nil {
		c.onErr()
	}
	if c.errs > 8 {
		return context.Canceled
	}
	return nil
}

// evicted persists key's value, then evicts it and reads it back twice:
// the first fetch goes through the file's index and teaches the entry
// where its revision is, the second reads there. It ends evicted.
func evicted(t *testing.T, vb *VBucket, key, value string) cache.Item {
	t.Helper()
	it := persisted(t, vb, key, value)
	for range 2 {
		if vb.Table.EvictValue(key) == 0 {
			t.Fatal("nothing to evict")
		}
		if got, err := vb.Get(bg, key, 0); err != nil || string(got.Value) != value {
			t.Fatalf("get %s = %q, %v", key, got.Value, err)
		}
	}
	vb.Table.EvictValue(key)
	return it
}

// TestMissAfterCompactionReadsByIndex: the entry learned where its
// revision was before a compaction moved the record; the next miss
// reads it through the file's index, and learns the new place.
func TestMissAfterCompactionReadsByIndex(t *testing.T) {
	vb, f := newVB(t, Active, Config{})
	for _, v := range []string{"a1", "a2", "a3"} { // stale records ahead of k's
		persisted(t, vb, "a", v)
	}
	evicted(t, vb, "k", "payload")
	if err := f.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		if got, err := vb.Get(bg, "k", 0); err != nil || string(got.Value) != "payload" {
			t.Fatalf("miss %d after the compaction: %q, %v", i, got.Value, err)
		}
		vb.Table.EvictValue("k")
	}
}

// TestNewRevisionBetweenMissAndFetch: a new revision lands, is
// persisted and evicted between a Get's miss and its fetch, which reads
// the old revision where the entry last found it. The old value is
// never installed: the Get misses again and returns the new one.
func TestNewRevisionBetweenMissAndFetch(t *testing.T) {
	vb, _ := newVB(t, Active, Config{})
	evicted(t, vb, "k", "old")
	ctx := &hookCtx{Context: bg, onErr: func() {
		evicted(t, vb, "k", "new")
	}}
	res, err := vb.Do(ctx, &Op{Code: memcproto.OpGet, Key: "k"})
	if err != nil || string(res.Item.Value) != "new" {
		t.Fatalf("get = %q, %v; want the new revision", res.Item.Value, err)
	}
	if got, err := vb.Table.Get("k", 0); err != nil || string(got.Value) != "new" {
		t.Errorf("the table holds %q, %v", got.Value, err)
	}
}

// TestFullEvictionBetweenMissAndRetry: the entry a Get's miss handed on
// is fully evicted before the retry, and the key written again; the
// retry looks the key up and reads the new entry.
func TestFullEvictionBetweenMissAndRetry(t *testing.T) {
	vb, _ := newVB(t, Active, Config{})
	evicted(t, vb, "k", "old")
	ctx := &hookCtx{Context: bg, onErr: func() {
		if !vb.Table.EvictItem("k", vb.PersistedSeqno(), 0) {
			t.Fatal("full eviction refused")
		}
		persisted(t, vb, "k", "new")
	}}
	res, err := vb.Do(ctx, &Op{Code: memcproto.OpGet, Key: "k"})
	if err != nil || string(res.Item.Value) != "new" {
		t.Fatalf("get = %q, %v; want the new entry's value", res.Item.Value, err)
	}
}
