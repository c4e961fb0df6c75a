package gsi

import (
	"bufio"
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
	"couchgo/internal/trace"
)

// fakeLog stands in for a standard-mode partition's maintenance log. It
// counts what is written and synced; a Sync fails with err, and with
// gate set it first announces itself on entered and parks until gate
// closes.
type fakeLog struct {
	bytes   atomic.Int64
	syncs   atomic.Int32
	entered chan struct{}
	gate    chan struct{}
	err     error
	// inSync is set while a Sync runs; closedInSync records a Close that
	// came during one.
	inSync, closedInSync atomic.Bool
}

func (l *fakeLog) Write(b []byte) (int, error) {
	l.bytes.Add(int64(len(b)))
	return len(b), nil
}

func (l *fakeLog) Sync() error {
	l.syncs.Add(1)
	l.inSync.Store(true)
	defer l.inSync.Store(false)
	if l.gate != nil {
		l.entered <- struct{}{}
		<-l.gate
	}
	return l.err
}

func (l *fakeLog) Close() error {
	if l.inSync.Load() {
		l.closedInSync.Store(true)
	}
	return nil
}

// swapLog puts l in place of a standard-mode partition's log file.
func swapLog(t *testing.T, ix *Indexer, l *fakeLog) {
	t.Helper()
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.log.Close(); err != nil {
		t.Fatal(err)
	}
	ix.log, ix.logW = l, bufio.NewWriter(l)
}

// loggedIndexer is a standalone standard-mode partition writing to l.
func loggedIndexer(t *testing.T, l *fakeLog) *Indexer {
	t.Helper()
	ix, err := NewStandaloneIndexer(Def{Name: "age", Keyspace: "ks", SecExprs: []string{"age"}}, filepath.Join(t.TempDir(), "idx.log"))
	if err != nil {
		t.Fatal(err)
	}
	swapLog(t, ix, l)
	t.Cleanup(ix.Close)
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
	if got := l.syncs.Load(); got != 10 {
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

// TestConcurrentBatchesShareFsyncs: batches from many drains are
// committed by fsyncs that each cover every flush made before them, so
// 32 callers of 100 ops make at most one fsync each (one per 16 ops,
// 200, when the fsync ran under the lock), and every op ends durable.
func TestConcurrentBatchesShareFsyncs(t *testing.T) {
	l := &fakeLog{}
	ix := loggedIndexer(t, l)
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ix.Apply(versions(g*100, 100)...)
		}(g)
	}
	wg.Wait()
	if got := l.syncs.Load(); got > 32 {
		t.Errorf("32 batches of 100 ops made %d fsyncs, want at most 32", got)
	}
	ix.mu.Lock()
	synced := ix.syncedOps
	ix.mu.Unlock()
	if synced != 3200 {
		t.Errorf("%d of 3200 ops synced", synced)
	}
	if n := len(ix.tree.Scan(ScanOptions{})); n != 3200 {
		t.Errorf("the tree holds %d of 3200 entries", n)
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
	if got := l.syncs.Load(); got != 2 {
		t.Errorf("%d fsyncs, want 2: the second batch flushed after the first fsync began", got)
	}
}

// TestCloseWaitsForTheFsync: a partition closed (shutdown, DROP INDEX)
// while a caller is inside the log's fsync closes the file only after
// that fsync returns, and starts no other.
func TestCloseWaitsForTheFsync(t *testing.T) {
	l := &fakeLog{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	ix := loggedIndexer(t, l)
	var open sync.Once
	release := func() { open.Do(func() { close(l.gate) }) }
	defer release()
	applied := make(chan struct{})
	go func() { defer close(applied); ix.Apply(versions(0, 16)...) }()
	<-l.entered
	closed := make(chan struct{})
	go func() { defer close(closed); ix.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while the fsync was in flight")
	case <-time.After(30 * time.Millisecond):
	}
	release()
	<-closed
	<-applied
	if l.closedInSync.Load() {
		t.Error("the log was closed during its fsync")
	}
	if got := l.syncs.Load(); got != 1 {
		t.Errorf("%d fsyncs, want 1", got)
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
	h.proj.hub.DetachVB(0)
	if err := h.proj.AttachVB(0, counted); err != nil {
		t.Fatal(err)
	}
	const docs = 2000
	for i := 0; i < docs; i++ {
		h.put(t, 0, fmt.Sprintf("u%04d", i), fmt.Sprintf(`{"age": %d}`, i))
	}
	if err := h.proj.feed.Wait(context.Background(), h.fresh()); err != nil {
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
	batches, syncs := counted.batches.Load(), l.syncs.Load()
	t.Logf("build of %d documents: %d stream batches, %d fsyncs", docs, batches, syncs)
	if syncs > batches || syncs >= docs/commitOps {
		t.Errorf("build made %d fsyncs over %d stream batches, want at most one per batch", syncs, batches)
	}
	if n := len(h.scanFresh(t, "age", ScanOptions{})); n != docs {
		t.Fatalf("built %d of %d entries", n, docs)
	}
}

// TestFailedSyncIsSticky: the log's first error is counted and journaled
// once; nothing is written or synced after it, and the tree keeps
// serving.
func TestFailedSyncIsSticky(t *testing.T) {
	l := &fakeLog{err: errors.New("injected sync failure")}
	ix := loggedIndexer(t, l)
	errorsBefore, lastEvent := mLogErrors.Value(), events.Default.LastSeq()
	ix.Apply(versions(0, 16)...)
	written := l.bytes.Load()
	for _, kv := range versions(16, 40) {
		ix.Apply(kv)
	}
	ix.Apply(versions(56, 30)...)
	if got := l.syncs.Load(); got != 1 {
		t.Errorf("%d fsyncs, want 1: none after the failure", got)
	}
	if got := l.bytes.Load(); got != written {
		t.Errorf("%d bytes written after the failure", got-written)
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
