package gsi

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"strconv"
	"sync"
	"time"

	"couchgo/internal/events"
	"couchgo/internal/metrics"
	"couchgo/internal/storage"
	"couchgo/internal/trace"
	"couchgo/internal/value"
)

// mLogErrors counts the partitions whose maintenance log failed, each
// once, when it fails. The log's fsyncs are storage's to count.
var mLogErrors = metrics.Default.Counter("couchgo_gsi_log_errors_total")

// stageCommit is an Apply's wait on the log's fsync, a span on each
// trace its versions carry.
var stageCommit = trace.NewStage("gsi:commit")

// commitOps is the standard-mode commit threshold: an Apply that leaves
// this many logged ops pending appends them and waits for an fsync that
// covers them.
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
// log: a *storage.VBFile opened without syncOnWrite.
type logFile interface {
	Append(recs []storage.Record, waited ...bool) error
	Sync() error
	Close() error
	Remove() error
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
	// the maintenance path, as with the on-disk index of 4.1), nil once
	// it has failed. Logged ops gather in recs, their values in vals,
	// and are appended under mu; the fsync that commits them runs
	// outside it (Apply). compactMu is held while a call compacts the
	// log.
	log       logFile
	recs      []storage.Record
	vals      []byte
	compactMu sync.Mutex
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
// Standard mode and ignored for MemoryOptimized. A standard-mode
// partition starts its log afresh: nothing reads a leftover one back.
func NewIndexer(cd *compiledDef, part int, logPath string) (*Indexer, error) {
	ix := &Indexer{
		def:     cd,
		part:    part,
		tree:    NewTree(nil),
		lastSeq: make(map[int]map[string]uint64),
	}
	if cd.Mode == Standard {
		if err := os.Remove(logPath); err != nil && !os.IsNotExist(err) {
			return nil, err
		}
		f, err := storage.Open(logPath, false)
		if err != nil {
			return nil, err
		}
		ix.log = f
	}
	return ix, nil
}

// Apply installs key versions, all under one hold of the partition's
// lock; each vBucket's versions arrive in seqno order. Once commitOps
// logged ops are pending, the call appends them, under the lock so that
// a document's newest record is its last in the file, and with the lock
// released waits for an fsync covering them: the standard (4.1) mode's
// disk dependence that §6.1.1's memory-optimized indexes remove. The
// log's group commit lets one fsync cover every append made before it,
// whichever caller made it.
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
		if ix.tree.Replace(kv.VB, kv.DocID, kv.Entries, nil) && ix.log != nil {
			ix.logLocked(kv)
		}
	}
	mIndexed.Add(uint64(applied))
	log, ops := ix.log, len(ix.recs)
	if ops < commitOps {
		ix.mu.Unlock()
		return
	}
	err := log.Append(ix.recs)
	ix.recs, ix.vals = ix.recs[:0], ix.vals[:0]
	ix.mu.Unlock()
	if err != nil {
		ix.dropLog(log, err)
		return
	}

	t0 := time.Now()
	err = log.Sync()
	stageCommit.Batch(len(kvs), func(i int) *trace.Trace { return kvs[i].Trace }, t0, time.Now(), err, func(sp *trace.Span) {
		sp.Annotate("index", ix.def.Name)
		sp.Annotate("ops", strconv.Itoa(ops))
	})
	if err != nil {
		ix.dropLog(log, err)
		return
	}
	ix.compact(log)
}

// logLocked gathers kv's log record: the document, its version's seqno
// and vBucket, and its entries, each collation-encoded behind its
// length. A version without entries is a deletion.
func (ix *Indexer) logLocked(kv *KeyVersion) {
	start := len(ix.vals)
	for _, sec := range kv.Entries {
		enc := value.EncodeKey(sec)
		ix.vals = binary.LittleEndian.AppendUint32(ix.vals, uint32(len(enc)))
		ix.vals = append(ix.vals, enc...)
	}
	ix.recs = append(ix.recs, storage.Record{
		Meta:  storage.Meta{Key: kv.DocID, Seqno: kv.Seqno, Flags: uint32(kv.VB), Deleted: len(kv.Entries) == 0},
		Value: ix.vals[start:],
	})
}

// compact rewrites log, outside mu, when storage finds it worth
// compacting and no other call is compacting it.
func (ix *Indexer) compact(log logFile) {
	f, ok := log.(*storage.VBFile)
	if !ok || !f.Stats().WorthCompacting() || !ix.compactMu.TryLock() {
		return
	}
	defer ix.compactMu.Unlock()
	if err := f.Compact(); err != nil {
		ix.dropLog(log, err)
	}
}

// dropLog detaches log after its first error and deletes it, since a
// log with a gap must not outlive it, and the partition serves from its
// tree, unlogged. A log already detached, by Close or by another call,
// reports nothing: its Sync returning storage.ErrClosed is shutdown,
// not failure.
func (ix *Indexer) dropLog(log logFile, err error) {
	ix.mu.Lock()
	mine := ix.log == log
	if mine {
		ix.log, ix.recs, ix.vals = nil, nil, nil
	}
	ix.mu.Unlock()
	if mine {
		ix.fail(errors.Join(err, log.Remove()))
	}
}

// fail counts and journals the failure of a log its caller detached, so
// it is reported once.
func (ix *Indexer) fail(err error) {
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

// Close ends the partition at shutdown: it appends the pending ops and
// closes the log, keeping the file. Apply does nothing after Close.
func (ix *Indexer) Close() { ix.close(true) }

// close ends the partition, keeping its log's file or deleting it (DROP
// INDEX, a failed CREATE INDEX). Closing the log waits out a Sync or
// compaction in flight.
func (ix *Indexer) close(keep bool) {
	ix.mu.Lock()
	log, recs := ix.log, ix.recs
	ix.closed, ix.log, ix.recs, ix.vals = true, nil, nil, nil
	ix.mu.Unlock()
	if log == nil {
		return
	}
	var err error
	if keep {
		err = errors.Join(log.Append(recs), log.Close())
	} else {
		err = log.Remove()
	}
	if err != nil {
		ix.fail(err)
	}
}
