package gsi

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"couchgo/internal/dcp"
	"couchgo/internal/events"
	"couchgo/internal/metrics"
	"couchgo/internal/storage"
	"couchgo/internal/trace"
)

// fakeLog stands in for a standard-mode partition's maintenance log. It
// counts the records appended and the Syncs; a Sync fails with err, and
// with gate set it first announces itself on entered and parks until
// gate closes.
type fakeLog struct {
	mu          sync.Mutex
	recs, syncs int
	entered     chan struct{}
	gate        chan struct{}
	err         error
}

func (l *fakeLog) Append(recs []storage.Record, _ ...bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.recs += len(recs)
	return nil
}

func (l *fakeLog) Sync() error {
	l.mu.Lock()
	l.syncs++
	l.mu.Unlock()
	if l.gate != nil {
		l.entered <- struct{}{}
		<-l.gate
	}
	return l.err
}

func (l *fakeLog) Close() error  { return nil }
func (l *fakeLog) Remove() error { return nil }

// counts returns the records appended and the Syncs made.
func (l *fakeLog) counts() (recs, syncs int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.recs, l.syncs
}

// swapLog puts l in place of a standard-mode partition's log file.
func swapLog(t *testing.T, ix *Indexer, l *fakeLog) {
	t.Helper()
	ix.mu.Lock()
	old := ix.log
	ix.log = l
	ix.mu.Unlock()
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}
}

// diskIndexer is a standalone standard-mode partition over its real log
// at path.
func diskIndexer(t *testing.T, path string) *Indexer {
	t.Helper()
	ix, err := NewStandaloneIndexer(Def{Name: "age", Keyspace: "ks", SecExprs: []string{"age"}}, path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ix.Close)
	return ix
}

// loggedIndexer is a standalone standard-mode partition writing to l.
func loggedIndexer(t *testing.T, l *fakeLog) *Indexer {
	t.Helper()
	ix := diskIndexer(t, filepath.Join(t.TempDir(), "idx.log"))
	swapLog(t, ix, l)
	return ix
}

// versions returns n key versions of distinct documents from id from on.
func versions(from, n int) []KeyVersion {
	out := make([]KeyVersion, n)
	for i := range out {
		id := from + i
		out[i] = KeyVersion{Index: "age", VB: id % 4, Seqno: uint64(id + 1), DocID: fmt.Sprintf("d%05d", id), Entries: [][]any{{float64(id)}}}
	}
	return out
}

// TestOneCallerSyncsEverySixteenOps: a caller alone pays what it paid
// when the fsync ran under the lock, one fsync per commitOps ops, so
// the §6.1.1 cost BenchmarkGSIStorageModes measures is unchanged; and a
// traced version whose Apply waited gets a gsi:commit span naming the
// ops the fsync covered.
func TestOneCallerSyncsEverySixteenOps(t *testing.T) {
	l := &fakeLog{}
	ix := loggedIndexer(t, l)
	tr := trace.New()
	tr.SetRate(1)
	_, root := tr.Force(context.Background(), "test:write")
	for i, kv := range versions(0, 160) {
		if i == 159 {
			kv.Trace = root.Trace()
		}
		ix.Apply(kv)
	}
	if _, got := l.counts(); got != 10 {
		t.Fatalf("160 ops applied one at a time made %d fsyncs, want 10", got)
	}
	var commits []string
	for _, n := range root.Trace().Tree().Children {
		if n.Name == "gsi:commit" {
			commits = append(commits, fmt.Sprint(n.Annotations))
		}
	}
	if want := "[{index age} {ops 16}]"; len(commits) != 1 || commits[0] != want {
		t.Fatalf("gsi:commit spans %v, want one annotated %s", commits, want)
	}
}

// TestConcurrentBatchesShareFsyncs: batches from many drains ride the
// log's group commit, whose fsyncs each cover every append made before
// them, so 32 callers of 100 ops make at most one fsync each (one per
// 16 ops, 200, when the fsync ran under the lock), and every op reaches
// the log.
func TestConcurrentBatchesShareFsyncs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.log")
	ix := diskIndexer(t, path)
	batches := metrics.Default.Counter("couchgo_storage_group_commit_batches")
	before := batches.Value()
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ix.Apply(versions(g*100, 100)...)
		}(g)
	}
	wg.Wait()
	if got := batches.Value() - before; got == 0 || got > 32 {
		t.Errorf("32 batches of 100 ops made %d fsyncs, want 1 to 32", got)
	}
	if n := len(ix.tree.Scan(ScanOptions{})); n != 3200 {
		t.Errorf("the tree holds %d of 3200 entries", n)
	}
	ix.Close()
	f, err := storage.Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n := f.Stats().Items; n != 3200 {
		t.Errorf("the log holds %d of 3200 documents", n)
	}
}

// TestBatchAppliesDuringAnFsync: while one caller waits inside the log's
// fsync, another goroutine's batch is applied and scannable; only its
// own commit waits.
func TestBatchAppliesDuringAnFsync(t *testing.T) {
	// One slot per fsync the two callers make, so the second never blocks
	// announcing itself.
	l := &fakeLog{entered: make(chan struct{}, 2), gate: make(chan struct{})}
	ix := loggedIndexer(t, l)
	var open sync.Once
	release := func() { open.Do(func() { close(l.gate) }) }
	defer release()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); ix.Apply(versions(0, 16)...) }()
	<-l.entered
	go func() { defer wg.Done(); ix.Apply(versions(16, 20)...) }()
	deadline := time.Now().Add(5 * time.Second)
	for len(ix.tree.Scan(ScanOptions{})) != 36 {
		if time.Now().After(deadline) {
			t.Fatalf("the second batch is not scannable while the first caller is in Sync: %d of 36 entries", len(ix.tree.Scan(ScanOptions{})))
		}
		time.Sleep(time.Millisecond)
	}
	release()
	wg.Wait()
	if _, got := l.counts(); got != 2 {
		t.Errorf("%d fsyncs, want 2: the second batch was appended after the first fsync began", got)
	}
}

// countedBuild counts the batches its index-build streams deliver.
type countedBuild struct {
	dcp.StreamSource
	batches atomic.Int32
}

func (c *countedBuild) ResumeStream(name string, uuid, from uint64) (dcp.MutationStream, error) {
	s, err := c.StreamSource.ResumeStream(name, uuid, from)
	if err != nil || !strings.HasPrefix(name, "gsi-build:") {
		return s, err
	}
	return &countedStream{MutationStream: s, n: &c.batches}, nil
}

type countedStream struct {
	dcp.MutationStream
	n *atomic.Int32
}

func (s *countedStream) Next() ([]dcp.Mutation, bool) {
	batch, ok := s.MutationStream.Next()
	if ok {
		s.n.Add(1)
	}
	return batch, ok
}

// TestBuildSyncsOncePerStreamBatch: an index build over existing
// documents applies each stream batch as one Apply, so it waits on at
// most one fsync per batch, not one per 16 documents.
func TestBuildSyncsOncePerStreamBatch(t *testing.T) {
	h := newHarness(t, 1)
	counted := &countedBuild{StreamSource: h.vbs[0].Producer()}
	h.hub.DetachVB(0)
	if err := h.hub.AttachVB(0, counted); err != nil {
		t.Fatal(err)
	}
	const docs = 2000
	for i := 0; i < docs; i++ {
		h.put(t, 0, fmt.Sprintf("u%04d", i), fmt.Sprintf(`{"age": %d}`, i))
	}
	if err := h.svc.feed.Wait(context.Background(), h.fresh()); err != nil {
		t.Fatal(err)
	}
	if err := h.svc.CreateIndex(Def{Name: "age", Keyspace: "Profile", SecExprs: []string{"age"}, Deferred: true}); err != nil {
		t.Fatal(err)
	}
	l := &fakeLog{}
	swapLog(t, h.parts("age")[0], l)
	if err := h.svc.BuildIndex("Profile", "age"); err != nil {
		t.Fatal(err)
	}
	_, syncs := l.counts()
	batches := int(counted.batches.Load())
	t.Logf("build of %d documents: %d stream batches, %d fsyncs", docs, batches, syncs)
	if syncs > batches || syncs >= docs/commitOps {
		t.Errorf("build made %d fsyncs over %d stream batches, want at most one per batch", syncs, batches)
	}
	if n := len(h.scanFresh(t, "age", ScanOptions{})); n != docs {
		t.Fatalf("built %d of %d entries", n, docs)
	}
}

// TestFailedSyncIsSticky: the log's first error is counted and journaled
// once; the partition drops the log, so nothing is appended or synced
// after it, and the tree keeps serving.
func TestFailedSyncIsSticky(t *testing.T) {
	l := &fakeLog{err: errors.New("injected sync failure")}
	ix := loggedIndexer(t, l)
	errorsBefore, lastEvent := mLogErrors.Value(), events.Default.LastSeq()
	ix.Apply(versions(0, 16)...)
	written, _ := l.counts()
	for _, kv := range versions(16, 40) {
		ix.Apply(kv)
	}
	ix.Apply(versions(56, 30)...)
	if got, syncs := l.counts(); syncs != 1 || got != written {
		t.Errorf("%d fsyncs and %d records appended after the failure, want none", syncs-1, got-written)
	}
	if got := mLogErrors.Value() - errorsBefore; got != 1 {
		t.Errorf("couchgo_gsi_log_errors_total moved by %d, want 1", got)
	}
	var journaled []map[string]string
	for _, e := range events.Default.Events(events.Filter{Type: events.FeedEvent, SinceSeq: lastEvent}) {
		if e.Service == "gsi" && e.Bucket == "ks" {
			journaled = append(journaled, e.Fields)
		}
	}
	if len(journaled) != 1 || journaled[0]["index"] != "age" || journaled[0]["partition"] != "0" || journaled[0]["error"] != "injected sync failure" {
		t.Errorf("journaled %v, want one event naming index age, partition 0 and the error", journaled)
	}
	if n := len(ix.tree.Scan(ScanOptions{})); n != 86 {
		t.Errorf("the tree serves %d of 86 entries after the failure", n)
	}
}

// TestLogReadsBack: the closed log, opened by storage, holds one record
// per indexed document, with its newest seqno and its vBucket; a
// deleted document's is a tombstone. A normal Close counts and journals
// nothing.
func TestLogReadsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.log")
	ix := diskIndexer(t, path)
	ix.Apply(versions(0, 100)...)
	updates := versions(0, 50)
	for i := range updates {
		updates[i].Seqno += 1000
	}
	updates[7].Entries = nil
	ix.Apply(updates...)
	for _, kv := range versions(100, 5) { // fewer than commitOps: pending at Close
		ix.Apply(kv)
	}
	errorsBefore, lastEvent := mLogErrors.Value(), events.Default.LastSeq()
	ix.Close()
	if got := mLogErrors.Value() - errorsBefore; got != 0 {
		t.Errorf("Close counted %d log errors", got)
	}
	for _, e := range events.Default.Events(events.Filter{Type: events.FeedEvent, SinceSeq: lastEvent}) {
		if e.Service == "gsi" {
			t.Errorf("Close journaled %q %v", e.Msg, e.Fields)
		}
	}

	f, err := storage.Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if n := f.Stats().Items; n != 105 {
		t.Errorf("the log holds %d documents, want 105", n)
	}
	for _, kv := range versions(0, 105) {
		if kv.Seqno <= 50 {
			kv.Seqno += 1000
		}
		rec, err := f.GetNewest(kv.DocID)
		if err != nil {
			t.Fatalf("%s: %v", kv.DocID, err)
		}
		if rec.Seqno != kv.Seqno || rec.Flags != uint32(kv.VB) || rec.Deleted != (kv.DocID == "d00007") {
			t.Errorf("%s: seqno %d vb %d deleted %v, want seqno %d vb %d", kv.DocID, rec.Seqno, rec.Flags, rec.Deleted, kv.Seqno, kv.VB)
		}
	}
}

// TestCompactionBoundsTheLog: a log rewritten by 20 rounds of updates to
// 1 000 documents stays within twice its live bytes, plus the 64 KiB
// below which storage does not compact.
func TestCompactionBoundsTheLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "idx.log")
	ix := diskIndexer(t, path)
	for round := 0; round < 20; round++ {
		kvs := versions(0, 1000)
		for i := range kvs {
			kvs[i].Seqno += uint64(round * 1000)
		}
		for at := 0; at < len(kvs); at += 100 {
			ix.Apply(kvs[at : at+100]...)
		}
	}
	ix.Close()
	f, err := storage.Open(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st := f.Stats()
	t.Logf("log: %d bytes, %d live, %d documents", st.FileBytes, st.LiveBytes, st.Items)
	if st.Items != 1000 || st.FileBytes > 2*st.LiveBytes+64<<10 {
		t.Errorf("log of %d documents: %d bytes, %d live: want at most twice the live bytes plus 64 KiB", st.Items, st.FileBytes, st.LiveBytes)
	}
}
