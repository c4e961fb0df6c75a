package gsi

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"couchgo/internal/dcp"
	"couchgo/internal/memcproto"
	"couchgo/internal/storage"
	"couchgo/internal/value"
	"couchgo/internal/vbucket"
)

// harness wires real vBuckets through a projector into a Service.
type harness struct {
	svc  *Service
	proj *Projector
	vbs  []*vbucket.VBucket
}

func newHarness(t *testing.T, nvb int) *harness {
	t.Helper()
	dir := t.TempDir()
	h := &harness{svc: NewService(dir)}
	h.proj = NewProjector(h.svc, "Profile")
	for i := 0; i < nvb; i++ {
		f, err := storage.Open(filepath.Join(dir, fmt.Sprintf("vb%d.couch", i)), false)
		if err != nil {
			t.Fatal(err)
		}
		vb := vbucket.New(i, f, vbucket.Active, vbucket.Config{})
		h.vbs = append(h.vbs, vb)
		if err := h.proj.AttachVB(i, vb.Producer()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { vb.Close(); f.Close() })
	}
	t.Cleanup(func() { h.proj.Close(); h.svc.Close() })
	return h
}

func (h *harness) put(t *testing.T, vb int, key, doc string) {
	t.Helper()
	if _, err := h.vbs[vb].Set(context.Background(), key, []byte(doc), 0, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
}

// fresh returns request_plus scan options covering all current writes.
func (h *harness) fresh() map[int]uint64 {
	out := map[int]uint64{}
	for _, vb := range h.vbs {
		out[vb.ID] = vb.HighSeqno()
	}
	return out
}

func (h *harness) scanFresh(t *testing.T, name string, opts ScanOptions) []ScanItem {
	t.Helper()
	opts.WaitSeqnos = h.fresh()
	items, err := h.svc.Scan(context.Background(), "Profile", name, opts)
	if err != nil {
		t.Fatal(err)
	}
	return items
}

func TestCreateIndexAndScan(t *testing.T) {
	h := newHarness(t, 2)
	if err := h.svc.CreateIndex(Def{Name: "email", Keyspace: "Profile", SecExprs: []string{"email"}}); err != nil {
		t.Fatal(err)
	}
	h.put(t, 0, "u1", `{"email": "a@x.com", "age": 30}`)
	h.put(t, 1, "u2", `{"email": "c@x.com", "age": 25}`)
	h.put(t, 0, "u3", `{"email": "b@x.com", "age": 35}`)
	h.put(t, 1, "u4", `{"age": 99}`) // no email -> not indexed

	items := h.scanFresh(t, "email", ScanOptions{})
	if len(items) != 3 {
		t.Fatalf("items: %+v", items)
	}
	// Sorted by secondary key across vBuckets.
	if items[0].DocID != "u1" || items[1].DocID != "u3" || items[2].DocID != "u2" {
		t.Errorf("order: %+v", items)
	}
	// The index returns doc IDs plus indexed values ("an index simply
	// returns the document ID for each attribute match").
	if items[0].SecKey[0] != "a@x.com" {
		t.Errorf("seckey: %+v", items[0])
	}
}

func TestIndexMaintenanceOnUpdateDelete(t *testing.T) {
	h := newHarness(t, 1)
	h.svc.CreateIndex(Def{Name: "email", Keyspace: "Profile", SecExprs: []string{"email"}})
	h.put(t, 0, "u1", `{"email": "old@x.com"}`)
	items := h.scanFresh(t, "email", ScanOptions{})
	if len(items) != 1 || items[0].SecKey[0] != "old@x.com" {
		t.Fatalf("initial: %+v", items)
	}
	h.put(t, 0, "u1", `{"email": "new@x.com"}`)
	items = h.scanFresh(t, "email", ScanOptions{})
	if len(items) != 1 || items[0].SecKey[0] != "new@x.com" {
		t.Fatalf("after update: %+v", items)
	}
	h.vbs[0].Do(context.Background(), &vbucket.Op{Code: memcproto.OpDelete, Key: "u1"})
	items = h.scanFresh(t, "email", ScanOptions{})
	if len(items) != 0 {
		t.Fatalf("after delete: %+v", items)
	}
}

func TestCreateIndexOnExistingDataBackfills(t *testing.T) {
	h := newHarness(t, 2)
	for i := 0; i < 40; i++ {
		h.put(t, i%2, fmt.Sprintf("u%02d", i), fmt.Sprintf(`{"email": "e%02d@x.com"}`, i))
	}
	if err := h.svc.CreateIndex(Def{Name: "email", Keyspace: "Profile", SecExprs: []string{"email"}}); err != nil {
		t.Fatal(err)
	}
	items := h.scanFresh(t, "email", ScanOptions{})
	if len(items) != 40 {
		t.Fatalf("backfilled %d items, want 40", len(items))
	}
}

// buildGate parks an index's initial-build stream until release closes.
type buildGate struct {
	dcp.StreamSource
	parked, release chan struct{}
}

func (g *buildGate) ResumeStream(name string, uuid, from uint64) (dcp.MutationStream, error) {
	if strings.HasPrefix(name, "gsi-build:") {
		close(g.parked)
		<-g.release
	}
	return g.StreamSource.ResumeStream(name, uuid, from)
}

// TestScanDuringInitialBuild: the projector feed's vector covers the
// existing data before CREATE INDEX starts, so the only thing keeping a
// request_plus scan off half-filled partitions is that the index is not
// scannable until its build is done.
func TestScanDuringInitialBuild(t *testing.T) {
	h := newHarness(t, 1)
	g := &buildGate{StreamSource: h.vbs[0].Producer(), parked: make(chan struct{}), release: make(chan struct{})}
	h.proj.DetachVB(0)
	if err := h.proj.AttachVB(0, g); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		h.put(t, 0, fmt.Sprintf("u%02d", i), fmt.Sprintf(`{"email": "e%02d@x.com"}`, i))
	}
	created := make(chan error, 1)
	go func() {
		created <- h.svc.CreateIndex(Def{Name: "email", Keyspace: "Profile", SecExprs: []string{"email"}})
	}()
	<-g.parked
	items, err := h.svc.Scan(context.Background(), "Profile", "email", ScanOptions{WaitSeqnos: h.fresh()})
	if err != ErrNoSuchIndex {
		t.Errorf("scan during the build = %d items, %v; want ErrNoSuchIndex", len(items), err)
	}
	if meta, err := h.svc.Lookup("Profile", "email"); err != nil || meta.Built {
		t.Errorf("Lookup during the build = built %v, %v", meta.Built, err)
	}
	close(g.release)
	if err := <-created; err != nil {
		t.Fatal(err)
	}
	if items := h.scanFresh(t, "email", ScanOptions{}); len(items) != 40 {
		t.Fatalf("backfilled %d items, want 40", len(items))
	}
}

// brokenBuild fails an index's initial-build stream while broken is
// set: "open" refuses the stream, "short" hands it over already closed,
// so it ends before the build's target seqno.
type brokenBuild struct {
	dcp.StreamSource
	broken string
}

func (b *brokenBuild) ResumeStream(name string, uuid, from uint64) (dcp.MutationStream, error) {
	if !strings.HasPrefix(name, "gsi-build:") || b.broken == "" {
		return b.StreamSource.ResumeStream(name, uuid, from)
	}
	if b.broken == "open" {
		return nil, errors.New("build stream refused")
	}
	s, err := b.StreamSource.ResumeStream(name, uuid, from)
	if err == nil {
		s.Close()
	}
	return s, err
}

// TestFailedBuildLeavesIndexUnbuilt: a build that cannot open or finish
// one vBucket's stream returns the error and the index stays
// unscannable, where it used to be marked built over an empty partition;
// BuildIndex over a healed source then fills it.
func TestFailedBuildLeavesIndexUnbuilt(t *testing.T) {
	for _, broken := range []string{"open", "short"} {
		t.Run(broken, func(t *testing.T) {
			h := newHarness(t, 2)
			b := &brokenBuild{StreamSource: h.vbs[1].Producer(), broken: broken}
			h.proj.DetachVB(1)
			if err := h.proj.AttachVB(1, b); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 40; i++ {
				h.put(t, i%2, fmt.Sprintf("u%02d", i), fmt.Sprintf(`{"email": "e%02d@x.com"}`, i))
			}
			def := Def{Name: "email", Keyspace: "Profile", SecExprs: []string{"email"}}
			if err := h.svc.CreateIndex(def); err == nil {
				t.Fatal("CreateIndex over a broken build stream returned nil")
			}
			if meta, err := h.svc.Lookup("Profile", "email"); err != nil || meta.Built {
				t.Fatalf("Lookup after the failed build = built %v, %v", meta.Built, err)
			}
			if items, err := h.svc.Scan(context.Background(), "Profile", "email", ScanOptions{WaitSeqnos: h.fresh()}); err != ErrNoSuchIndex {
				t.Fatalf("scan after the failed build = %d items, %v; want ErrNoSuchIndex", len(items), err)
			}
			if err := h.svc.BuildIndex("Profile", "email"); err == nil {
				t.Fatal("BuildIndex over a broken build stream returned nil")
			}
			b.broken = ""
			if err := h.svc.BuildIndex("Profile", "email"); err != nil {
				t.Fatal(err)
			}
			if items := h.scanFresh(t, "email", ScanOptions{}); len(items) != 40 {
				t.Fatalf("rebuilt %d items, want 40", len(items))
			}
		})
	}
}

func TestRangeScans(t *testing.T) {
	h := newHarness(t, 1)
	h.svc.CreateIndex(Def{Name: "age", Keyspace: "Profile", SecExprs: []string{"age"}})
	for i := 0; i < 10; i++ {
		h.put(t, 0, fmt.Sprintf("u%d", i), fmt.Sprintf(`{"age": %d}`, 20+i))
	}
	// age >= 25, < 28
	items := h.scanFresh(t, "age", ScanOptions{
		Low: []any{25.0}, LowIncl: true, High: []any{28.0},
	})
	if len(items) != 3 || items[0].SecKey[0] != 25.0 || items[2].SecKey[0] != 27.0 {
		t.Fatalf("range: %+v", items)
	}
	// Exclusive low / inclusive high.
	items = h.scanFresh(t, "age", ScanOptions{
		Low: []any{25.0}, High: []any{28.0}, HighIncl: true,
	})
	if len(items) != 3 || items[0].SecKey[0] != 26.0 || items[2].SecKey[0] != 28.0 {
		t.Fatalf("excl/incl: %+v", items)
	}
	// Equality.
	items = h.scanFresh(t, "age", ScanOptions{EqualKey: []any{23.0}, HasEqual: true})
	if len(items) != 1 || items[0].DocID != "u3" {
		t.Fatalf("equality: %+v", items)
	}
	// Limit + reverse.
	items = h.scanFresh(t, "age", ScanOptions{Limit: 2, Reverse: true})
	if len(items) != 2 || items[0].SecKey[0] != 29.0 {
		t.Fatalf("reverse limit: %+v", items)
	}
	// Count.
	n, err := h.svc.Count("Profile", "age", ScanOptions{Low: []any{25.0}, LowIncl: true})
	if err != nil || n != 5 {
		t.Fatalf("count: %d %v", n, err)
	}
}

func TestCompositeIndex(t *testing.T) {
	h := newHarness(t, 1)
	h.svc.CreateIndex(Def{Name: "cityAge", Keyspace: "Profile", SecExprs: []string{"city", "age"}})
	h.put(t, 0, "u1", `{"city": "SF", "age": 30}`)
	h.put(t, 0, "u2", `{"city": "SF", "age": 25}`)
	h.put(t, 0, "u3", `{"city": "NY", "age": 40}`)
	// Prefix scan: city = SF matches both ages, ordered by age.
	items := h.scanFresh(t, "cityAge", ScanOptions{
		Low: []any{"SF"}, LowIncl: true, High: []any{"SF"}, HighIncl: true,
	})
	if len(items) != 2 || items[0].DocID != "u2" || items[1].DocID != "u1" {
		t.Fatalf("prefix scan: %+v", items)
	}
	// Full composite equality.
	items = h.scanFresh(t, "cityAge", ScanOptions{EqualKey: []any{"SF", 25.0}, HasEqual: true})
	if len(items) != 1 || items[0].DocID != "u2" {
		t.Fatalf("composite equality: %+v", items)
	}
}

func TestPartialIndex(t *testing.T) {
	// The §3.3.4 example: WHERE age > 21.
	h := newHarness(t, 1)
	if err := h.svc.CreateIndex(Def{
		Name: "over21", Keyspace: "Profile", SecExprs: []string{"age"}, WhereExpr: "age > 21",
	}); err != nil {
		t.Fatal(err)
	}
	h.put(t, 0, "kid", `{"age": 15}`)
	h.put(t, 0, "adult", `{"age": 30}`)
	items := h.scanFresh(t, "over21", ScanOptions{})
	if len(items) != 1 || items[0].DocID != "adult" {
		t.Fatalf("partial index: %+v", items)
	}
	// A doc aging out of the predicate leaves the index.
	h.put(t, 0, "adult", `{"age": 10}`)
	items = h.scanFresh(t, "over21", ScanOptions{})
	if len(items) != 0 {
		t.Fatalf("after predicate change: %+v", items)
	}
}

func TestPrimaryIndex(t *testing.T) {
	h := newHarness(t, 2)
	h.svc.CreateIndex(Def{Name: "#primary", Keyspace: "Profile", IsPrimary: true})
	for i := 0; i < 6; i++ {
		h.put(t, i%2, fmt.Sprintf("user%d", i), `{"x": 1}`)
	}
	items := h.scanFresh(t, "#primary", ScanOptions{})
	if len(items) != 6 || items[0].DocID != "user0" {
		t.Fatalf("primary scan: %+v", items)
	}
	// Range on document IDs (workload E's meta().id >= $1 pattern).
	items = h.scanFresh(t, "#primary", ScanOptions{Low: []any{"user3"}, LowIncl: true, Limit: 2})
	if len(items) != 2 || items[0].DocID != "user3" || items[1].DocID != "user4" {
		t.Fatalf("primary range: %+v", items)
	}
}

func TestArrayIndex(t *testing.T) {
	// §6.1.2: index on array-valued field, one entry per element.
	h := newHarness(t, 1)
	if err := h.svc.CreateIndex(Def{
		Name: "byCategory", Keyspace: "Profile",
		SecExprs: []string{"ARRAY c FOR c IN categories END"},
	}); err != nil {
		t.Fatal(err)
	}
	h.put(t, 0, "p1", `{"categories": ["db", "nosql", "db"]}`) // dup deduped
	h.put(t, 0, "p2", `{"categories": ["cloud", "db"]}`)
	h.put(t, 0, "p3", `{"categories": []}`)

	items := h.scanFresh(t, "byCategory", ScanOptions{EqualKey: []any{"db"}, HasEqual: true})
	if len(items) != 2 {
		t.Fatalf("array equality: %+v", items)
	}
	items = h.scanFresh(t, "byCategory", ScanOptions{})
	if len(items) != 4 { // p1: db,nosql; p2: cloud,db
		t.Fatalf("array entries: %+v", items)
	}
	// Element removed from array -> entry removed.
	h.put(t, 0, "p2", `{"categories": ["cloud"]}`)
	items = h.scanFresh(t, "byCategory", ScanOptions{EqualKey: []any{"db"}, HasEqual: true})
	if len(items) != 1 || items[0].DocID != "p1" {
		t.Fatalf("after array shrink: %+v", items)
	}
	meta, _ := h.svc.Lookup("Profile", "byCategory")
	if !meta.IsArrayIndex {
		t.Error("IsArrayIndex flag")
	}
}

func TestPartitionedIndex(t *testing.T) {
	h := newHarness(t, 2)
	if err := h.svc.CreateIndex(Def{
		Name: "age", Keyspace: "Profile", SecExprs: []string{"age"}, NumPartitions: 4,
	}); err != nil {
		t.Fatal(err)
	}
	indexed := mIndexed.Value()
	for i := 0; i < 50; i++ {
		h.put(t, i%2, fmt.Sprintf("u%02d", i), fmt.Sprintf(`{"age": %d}`, i))
	}
	items := h.scanFresh(t, "age", ScanOptions{})
	if len(items) != 50 {
		t.Fatalf("partitioned scan: %d items", len(items))
	}
	// One mutation is one maintenance op, in the partition that owns the
	// document, however many partitions the index has.
	if got := mIndexed.Value() - indexed; got != 50 {
		t.Fatalf("couchgo_gsi_indexed_total advanced by %d for 50 mutations", got)
	}
	// Merged in collation order despite partitioning.
	for i := 1; i < len(items); i++ {
		if items[i-1].SecKey[0].(float64) > items[i].SecKey[0].(float64) {
			t.Fatalf("merge order broken at %d", i)
		}
	}
	// Each doc's entries live in exactly one partition.
	parts, _ := h.svc.Partitions("Profile", "age")
	total, guards := 0, 0
	for _, p := range parts {
		st := p.Stats()
		total += st.Entries
		p.mu.Lock()
		for _, byDoc := range p.lastSeq {
			guards += len(byDoc)
		}
		p.mu.Unlock()
		if st.Docs != st.Entries {
			t.Errorf("partition %d: %d back-index documents for %d entries", p.part, st.Docs, st.Entries)
		}
	}
	if total != 50 || guards != 50 {
		t.Fatalf("partitions hold %d entries and %d lastSeq guards for 50 documents", total, guards)
	}
	// Limited partitioned scan.
	items = h.scanFresh(t, "age", ScanOptions{Low: []any{10.0}, LowIncl: true, Limit: 5})
	if len(items) != 5 || items[0].SecKey[0] != 10.0 {
		t.Fatalf("partitioned limit: %+v", items)
	}
}

func TestDeferredBuild(t *testing.T) {
	h := newHarness(t, 1)
	h.put(t, 0, "u1", `{"age": 30}`)
	if err := h.svc.CreateIndex(Def{
		Name: "age", Keyspace: "Profile", SecExprs: []string{"age"}, Deferred: true,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := h.svc.Scan(context.Background(), "Profile", "age", ScanOptions{}); err != ErrNoSuchIndex {
		t.Fatalf("deferred index should not be scannable: %v", err)
	}
	if err := h.svc.BuildIndex("Profile", "age"); err != nil {
		t.Fatal(err)
	}
	items := h.scanFresh(t, "age", ScanOptions{})
	if len(items) != 1 {
		t.Fatalf("after build: %+v", items)
	}
}

func TestRequestPlusWaitsForMutations(t *testing.T) {
	h := newHarness(t, 2)
	h.svc.CreateIndex(Def{Name: "age", Keyspace: "Profile", SecExprs: []string{"age"}})
	// Burst writes + immediate request_plus scans: must always observe.
	for round := 0; round < 10; round++ {
		for i := 0; i < 10; i++ {
			h.put(t, i%2, fmt.Sprintf("r%dd%d", round, i), fmt.Sprintf(`{"age": %d}`, i))
		}
		items := h.scanFresh(t, "age", ScanOptions{})
		want := (round + 1) * 10
		if len(items) != want {
			t.Fatalf("round %d: %d items, want %d", round, len(items), want)
		}
	}
}

func TestMemoryOptimizedModeAndSnapshot(t *testing.T) {
	h := newHarness(t, 1)
	h.svc.CreateIndex(Def{
		Name: "age", Keyspace: "Profile", SecExprs: []string{"age"}, Mode: MemoryOptimized,
	})
	for i := 0; i < 20; i++ {
		h.put(t, 0, fmt.Sprintf("u%02d", i), fmt.Sprintf(`{"age": %d}`, i))
	}
	items := h.scanFresh(t, "age", ScanOptions{})
	if len(items) != 20 {
		t.Fatalf("memopt scan: %d", len(items))
	}
	// Snapshot / restore round trip (§6.1.1 disk-backup recoverability).
	parts, _ := h.svc.Partitions("Profile", "age")
	var buf bytes.Buffer
	vec := h.svc.FeedStats("Profile")[0].Processed
	if err := parts[0].SnapshotTo(&buf, vec); err != nil {
		t.Fatal(err)
	}
	cd, _ := compileDef(Def{Name: "age2", Keyspace: "Profile", SecExprs: []string{"age"}, Mode: MemoryOptimized})
	restored, err := NewIndexer(cd, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	recovered, err := restored.RestoreFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Stats().Entries != 20 {
		t.Fatalf("restored entries: %+v", restored.Stats())
	}
	got, err := restored.Scan(context.Background(), ScanOptions{EqualKey: []any{7.0}, HasEqual: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].DocID != "u07" {
		t.Fatalf("restored scan: %+v", got)
	}
	// A bare partition has no feed to wait on: it refuses request_plus
	// rather than answer unconsistent.
	if _, err := restored.Scan(context.Background(), ScanOptions{WaitSeqnos: recovered}); err != ErrPartitionWait {
		t.Errorf("partition scan with WaitSeqnos = %v, want ErrPartitionWait", err)
	}
	// The recovery vector survives.
	if recovered[0] != 20 {
		t.Errorf("recovery vector %v lost in snapshot, want vb0 at 20", recovered)
	}
}

func TestIndexDDLErrors(t *testing.T) {
	h := newHarness(t, 1)
	if err := h.svc.CreateIndex(Def{Name: "x", Keyspace: "P"}); err == nil {
		t.Error("no keys should fail")
	}
	if err := h.svc.CreateIndex(Def{Name: "x", Keyspace: "P", SecExprs: []string{"(("}}); err == nil {
		t.Error("bad expr should fail")
	}
	if err := h.svc.CreateIndex(Def{Name: "x", Keyspace: "P", IsPrimary: true, SecExprs: []string{"a"}}); err == nil {
		t.Error("primary with keys should fail")
	}
	if err := h.svc.CreateIndex(Def{Name: "x", Keyspace: "P", SecExprs: []string{"a", "ARRAY c FOR c IN b END"}}); err == nil {
		t.Error("trailing array key should fail")
	}
	h.svc.CreateIndex(Def{Name: "dup", Keyspace: "P", SecExprs: []string{"a"}})
	if err := h.svc.CreateIndex(Def{Name: "dup", Keyspace: "P", SecExprs: []string{"a"}}); err != ErrIndexExists {
		t.Errorf("duplicate: %v", err)
	}
	if err := h.svc.DropIndex("P", "nope"); err != ErrNoSuchIndex {
		t.Errorf("drop unknown: %v", err)
	}
	if err := h.svc.BuildIndex("P", "nope"); err != ErrNoSuchIndex {
		t.Errorf("build unknown: %v", err)
	}
	if _, err := h.svc.Scan(context.Background(), "P", "nope", ScanOptions{}); err != ErrNoSuchIndex {
		t.Errorf("scan unknown: %v", err)
	}
	if err := h.svc.DropIndex("P", "dup"); err != nil {
		t.Fatal(err)
	}
}

func TestListIndexesCatalog(t *testing.T) {
	h := newHarness(t, 1)
	h.svc.CreateIndex(Def{Name: "b", Keyspace: "Profile", SecExprs: []string{"beta"}})
	h.svc.CreateIndex(Def{Name: "a", Keyspace: "Profile", SecExprs: []string{"alpha"}, WhereExpr: "alpha > 0"})
	h.svc.CreateIndex(Def{Name: "other", Keyspace: "Other", SecExprs: []string{"x"}})
	metas := h.svc.ListIndexes("Profile")
	if len(metas) != 2 || metas[0].Name != "a" || metas[1].Name != "b" {
		t.Fatalf("catalog: %+v", metas)
	}
	if metas[0].SecCanonical[0] != "self.alpha" || metas[0].WhereCanonical != "(self.alpha > 0)" {
		t.Errorf("canonical forms: %+v", metas[0])
	}
}

func TestDetachVBStopsProjection(t *testing.T) {
	h := newHarness(t, 2)
	h.svc.CreateIndex(Def{Name: "age", Keyspace: "Profile", SecExprs: []string{"age"}})
	h.put(t, 0, "a", `{"age": 1}`)
	h.put(t, 1, "b", `{"age": 2}`)
	h.scanFresh(t, "age", ScanOptions{})
	h.proj.DetachVB(1)
	// Further writes to vb1 are not projected.
	h.vbs[1].Set(context.Background(), "c", []byte(`{"age": 3}`), 0, 0, 0, 0)
	items, _ := h.svc.Scan(context.Background(), "Profile", "age", ScanOptions{})
	for _, it := range items {
		if it.DocID == "c" {
			t.Fatal("detached vb still projecting")
		}
	}
}

// TestEntriesAllocBudget bounds what computing one mutation's entries
// for a two-key secondary index allocates: the row (its slots, and its
// context and metadata in one object), the key and the entry list. The
// projector pays this per mutation per index.
func TestEntriesAllocBudget(t *testing.T) {
	cd, err := compileDef(Def{Name: "byCityAge", Keyspace: "Profile", SecExprs: []string{"address.city", "age"}})
	if err != nil {
		t.Fatal(err)
	}
	doc := value.MustParse(`{"age": 30, "address": {"city": "SF"}}`)
	n := testing.AllocsPerRun(200, func() {
		es, err := cd.entries("p1", doc, 7)
		if err != nil || len(es) != 1 || es[0][0] != "SF" || es[0][1] != 30.0 {
			t.Fatal(es, err)
		}
	})
	if n > 4 {
		t.Errorf("%.0f allocations per mutation, budget 4", n)
	}
}
