package gsi

import (
	"bufio"
	"context"
	"encoding/binary"
	"os"
	"strconv"
	"sync"

	"couchgo/internal/events"
	"couchgo/internal/metrics"
	"couchgo/internal/trace"
	"couchgo/internal/value"
)

// Standard-mode log accounting: fsyncs, the ops each one made durable,
// and partitions whose log failed (each counted once, when it fails).
var (
	mLogSyncs   = metrics.Default.Counter("couchgo_gsi_log_syncs_total")
	mOpsPerSync = metrics.Default.ValueHistogram("couchgo_gsi_log_ops_per_sync")
	mLogErrors  = metrics.Default.Counter("couchgo_gsi_log_errors_total")
)

// commitOps is the standard-mode commit threshold: an Apply that leaves
// this many logged ops unflushed flushes them and waits for an fsync
// that covers them.
const commitOps = 16

// KeyVersion is the maintenance message flowing projector → router →
// indexer: the set of secondary keys a document now contributes to one
// index. Empty Entries means "remove any previous contribution" (the
// document was deleted or stopped qualifying).
type KeyVersion struct {
	Index string
	VB    int
	Seqno uint64
	DocID string
	// Entries are composite secondary keys ([]any per entry; several
	// for array indexes).
	Entries [][]any
	// Trace is the sampled trace of the mutation the version came from:
	// an Apply that waits on the log's fsync adds a gsi:commit span to it.
	Trace *trace.Trace
}

// logFile is what a standard-mode partition needs of its maintenance
// log: an *os.File.
type logFile interface {
	Write([]byte) (int, error)
	Sync() error
	Close() error
}

// Indexer maintains one partition of one index — "the indexer
// component processes the changes received from the router and manages
// the on-disk index tree data structure".
type Indexer struct {
	def  *compiledDef
	part int

	tree *Tree

	mu sync.Mutex
	// lastSeq guards against out-of-order redelivery: the initial-build
	// backfill stream races the steady-state projector stream, and a
	// document's index contribution must only ever move forward. Keyed
	// by vBucket, then document, so PurgeVB drops one partition's guards.
	lastSeq map[int]map[string]uint64
	closed  bool

	// Standard mode: the append-only maintenance log (real disk I/O on
	// the maintenance path, as with the on-disk index of 4.1). Records
	// are written through logW under mu; the fsync that commits them
	// runs outside it (commit).
	log  logFile
	logW *bufio.Writer
	rec  []byte // one encoded record, reused
	// logErr is the log's first error. It is sticky: nothing is written
	// or synced after it, and the tree keeps serving from memory.
	logErr error
	// pendingOps counts the ops written since the last flush; flushedOps
	// and syncedOps the ops flushed and made durable since the log
	// opened, so an fsync of everything flushed covers every op up to
	// flushedOps.
	pendingOps            int
	flushedOps, syncedOps uint64
	// syncing is set while an fsync runs; syncEnd is broadcast when it
	// ends, and lastSyncOps is the ops the last one made durable.
	syncing     bool
	syncEnd     *sync.Cond
	lastSyncOps uint64
}

// NewStandaloneIndexer compiles def and creates a single-partition
// indexer outside a Service — benchmarks and embedding use it to
// exercise the maintenance path in isolation.
func NewStandaloneIndexer(def Def, logPath string) (*Indexer, error) {
	cd, err := compileDef(def)
	if err != nil {
		return nil, err
	}
	return NewIndexer(cd, 0, logPath)
}

// NewIndexer creates a partition indexer. logPath is required for
// Standard mode and ignored for MemoryOptimized.
func NewIndexer(cd *compiledDef, part int, logPath string) (*Indexer, error) {
	ix := &Indexer{
		def:     cd,
		part:    part,
		tree:    NewTree(nil),
		lastSeq: make(map[int]map[string]uint64),
	}
	ix.syncEnd = sync.NewCond(&ix.mu)
	if cd.Mode == Standard {
		f, err := os.OpenFile(logPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, err
		}
		ix.log = f
		ix.logW = bufio.NewWriter(f)
	}
	return ix, nil
}

// Apply installs key versions, all under one hold of the partition's
// lock; each vBucket's versions arrive in seqno order. Once commitOps
// logged ops are pending, the call flushes them and, with the lock
// released, waits for an fsync covering them: the standard (4.1) mode's
// disk dependence that §6.1.1's memory-optimized indexes remove. One
// fsync covers every flush made before it, whichever caller made it.
func (ix *Indexer) Apply(kvs ...KeyVersion) {
	ix.mu.Lock()
	if ix.closed {
		ix.mu.Unlock()
		return
	}
	applied := 0
	for i := range kvs {
		kv := &kvs[i]
		guards := ix.lastSeq[kv.VB]
		if guards == nil {
			guards = make(map[string]uint64)
			ix.lastSeq[kv.VB] = guards
		}
		if kv.Seqno <= guards[kv.DocID] {
			// Stale or duplicate delivery (backfill racing the live feed).
			continue
		}
		applied++
		guards[kv.DocID] = kv.Seqno
		if ix.tree.Replace(kv.VB, kv.DocID, kv.Entries, nil) && ix.logW != nil {
			ix.appendLogLocked(kv)
		}
	}
	mIndexed.Add(uint64(applied))
	if ix.pendingOps < commitOps {
		ix.mu.Unlock()
		return
	}
	ix.flushLocked()
	gen := ix.flushedOps
	ix.mu.Unlock()

	var spans []*trace.Span
	for i := range kvs {
		if sp := kvs[i].Trace.StartSpan("gsi:commit"); sp != nil {
			sp.Annotate("index", ix.def.Name)
			spans = append(spans, sp)
		}
	}
	ops := strconv.FormatUint(ix.commit(gen), 10)
	for _, sp := range spans {
		sp.Annotate("ops", ops)
		sp.End()
	}
}

// appendLogLocked writes the maintenance op to the disk log's buffer.
func (ix *Indexer) appendLogLocked(kv *KeyVersion) {
	if ix.logErr != nil {
		return
	}
	b := binary.LittleEndian.AppendUint64(ix.rec[:0], kv.Seqno)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(kv.DocID)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(kv.Entries)))
	b = append(b, kv.DocID...)
	for _, sec := range kv.Entries {
		enc := value.EncodeKey(sec)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(enc)))
		b = append(b, enc...)
	}
	ix.rec = b
	if _, err := ix.logW.Write(b); err != nil {
		ix.failLocked(err)
		return
	}
	ix.pendingOps++
}

// flushLocked hands the pending ops to the file (the write syscall).
func (ix *Indexer) flushLocked() {
	if ix.logErr != nil {
		return
	}
	if err := ix.logW.Flush(); err != nil {
		ix.failLocked(err)
		return
	}
	ix.flushedOps += uint64(ix.pendingOps)
	ix.pendingOps = 0
}

// commit waits until an fsync covers the first gen flushed ops and
// returns how many ops that fsync made durable. When no fsync in flight
// will cover them, the caller leads one: it syncs everything flushed so
// far, outside mu, so every drain that flushed while the previous fsync
// ran rides the next one.
func (ix *Indexer) commit(gen uint64) uint64 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for ix.syncedOps < gen && ix.logErr == nil && !ix.closed {
		if ix.syncing {
			ix.syncEnd.Wait()
			continue
		}
		from, target := ix.syncedOps, ix.flushedOps
		ix.syncing = true
		ix.mu.Unlock()
		err := ix.log.Sync()
		ix.mu.Lock()
		ix.syncing = false
		ix.syncEnd.Broadcast()
		mLogSyncs.Inc()
		if err != nil {
			ix.failLocked(err)
			break
		}
		ix.syncedOps, ix.lastSyncOps = target, target-from
		mOpsPerSync.ObserveValue(ix.lastSyncOps)
	}
	return ix.lastSyncOps
}

// failLocked makes err the partition's sticky log error, counts it and
// journals it once.
func (ix *Indexer) failLocked(err error) {
	if ix.logErr != nil {
		return
	}
	ix.logErr, ix.pendingOps = err, 0
	mLogErrors.Inc()
	e := events.New(events.FeedEvent, events.SevWarn, "gsi maintenance log failed: partition serves from memory, unlogged")
	e.Service = "gsi"
	e.Bucket = ix.def.Keyspace
	e.Fields = map[string]string{
		"index":     ix.def.Name,
		"partition": strconv.Itoa(ix.part),
		"error":     err.Error(),
	}
	events.Default.Publish(e)
}

// PurgeVB drops one vBucket's contribution entirely: tree entries and
// seqno guards. The feed layer calls it on rollback, when a promoted
// copy's history is shorter than what this partition already applied;
// clearing lastSeq is what lets the re-streamed (lower-seqno) versions
// apply again.
func (ix *Indexer) PurgeVB(vb int) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed {
		return
	}
	ix.tree.PurgeVB(vb)
	delete(ix.lastSeq, vb)
}

// Scan serves one page of a range or equality scan on this partition
// (Tree.Scan). A partition has no seqno vector to wait on, so a
// request_plus scan handed to one directly is refused rather than
// served unconsistent.
func (ix *Indexer) Scan(_ context.Context, opts ScanOptions) ([]ScanItem, error) {
	if opts.WaitSeqnos != nil {
		return nil, ErrPartitionWait
	}
	return ix.tree.Scan(opts), nil
}

// Close flushes the log, waits out an fsync in flight and closes the
// file. Apply does nothing after Close.
func (ix *Indexer) Close() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.closed {
		return
	}
	ix.closed = true
	if ix.log == nil {
		return
	}
	ix.flushLocked()
	for ix.syncing {
		ix.syncEnd.Wait()
	}
	if err := ix.log.Close(); err != nil {
		ix.failLocked(err)
	}
}
