// Package vbucket implements one logical partition of a bucket: the
// memory-first write path of the paper's Figure 6.
//
// "When data is written to Couchbase, it is first stored in the hash
// tables in the integrated (managed) cache. At this point, an initial
// acknowledgement of receipt of the mutation is sent back to the client
// SDK. This mutation is then asynchronously written to disk via the
// disk write queue, and at the same time it is also pushed into the
// in-memory replication queue to be replicated to other nodes."
//
// A VBucket combines a cache.HashTable (the hash table for this
// partition), a storage.VBFile (its append-only file), a flusher
// goroutine draining the disk-write queue, and a dcp.Producer feeding
// every downstream consumer. Per-mutation durability options
// (ReplicateTo / PersistTo, §2.3.2) are implemented as waits on the
// persistence and replication seqno watermarks — the write path itself
// never becomes synchronous.
package vbucket

import (
	"context"
	"errors"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"couchgo/internal/cache"
	"couchgo/internal/dcp"
	"couchgo/internal/events"
	"couchgo/internal/metrics"
	"couchgo/internal/storage"
	"couchgo/internal/trace"
)

// KV-path metrics, shared across every vBucket in the process (the
// per-op series are in op.go). A Get is served from RAM (hit) or finds
// no document (miss); a bgfetch is a restoration from the storage
// engine on behalf of any op, and a Get that needed one counts as
// neither hit nor miss.
var (
	mCacheHits   = metrics.Default.Counter("couchgo_cache_hits_total")
	mCacheMisses = metrics.Default.Counter("couchgo_cache_misses_total")
	mBgFetches   = metrics.Default.Counter("couchgo_cache_bgfetches_total")

	mFlushBatchItems = metrics.Default.ValueHistogram("couchgo_flusher_batch_items")
	mFlushDuration   = metrics.Default.Histogram("couchgo_flusher_flush_duration_seconds")
	// mFlushQueueDepth is the process-wide disk-write queue backlog
	// (entries enqueued by onMutate, not yet handed to storage). A
	// persistently high value means the flushers cannot keep up.
	mFlushQueueDepth = metrics.Default.Gauge("couchgo_flusher_queue_depth")
)

// slowOpThreshold is how long one flusher disk commit may take before
// a slow-op event is journaled naming the blocking site. The 374ms+
// front-end max-latency outliers in BENCH_transport.json traced to
// disk commits (fsync, and compaction competing for the device)
// monopolizing the core; the journal entry makes the next stall
// attributable without a profiler attached. Variable, so tests can
// lower it.
var slowOpThreshold = 100 * time.Millisecond

// State is the partition state machine from §4.3.1: "Throughout the
// migration and redistribution of partitions among servers, any given
// partition on a server will be in one of the following states."
type State int

const (
	// Dead: "This server is not in any way responsible for this
	// partition."
	Dead State = iota
	// Replica: "The server hosting the partition cannot handle client
	// requests, but it will receive replication commands."
	Replica
	// Pending is a rebalance destination being built (treated as a
	// replica until the atomic switchover).
	Pending
	// Active: "The server hosting the partition is servicing all types
	// of requests for this partition."
	Active
)

func (s State) String() string {
	switch s {
	case Active:
		return "active"
	case Replica:
		return "replica"
	case Pending:
		return "pending"
	default:
		return "dead"
	}
}

// Errors specific to vBucket request routing and durability.
var (
	// ErrNotMyVBucket tells a smart client its cluster map is stale.
	ErrNotMyVBucket = errors.New("vbucket: not my vbucket")
	ErrTimeout      = errors.New("vbucket: durability wait timed out")
	ErrClosed       = errors.New("vbucket: closed")
)

// maxFlushBatch bounds how many queued mutations one flush drains.
const maxFlushBatch = 4096

// Config tunes a vBucket.
type Config struct {
	// SyncOnPersist fsyncs each flushed batch.
	SyncOnPersist bool
	// DiskDelay simulates device latency per flushed batch (used by the
	// durability ablation to model spinning disks; zero for SSD/none).
	DiskDelay time.Duration
	// FullEviction enables §4.3.3's full-eviction mode: the item pager
	// may remove keys and metadata entirely, and reads/writes of absent
	// keys consult the storage engine before concluding "not found".
	FullEviction bool
}

// VBucket is one partition's engine on one node.
type VBucket struct {
	ID int

	state atomic.Int32 // a State; read by every KV op

	Table    *cache.HashTable
	file     *storage.VBFile
	producer *dcp.Producer

	cfg Config

	// Disk-write queue (Figure 6). The flusher drains it in order by
	// swapping in the slice it drained before, so the two take turns and
	// neither is allocated per batch. queueTraces holds the sampled
	// traces of queued mutations (almost always none) so the commit hop
	// shows up in them.
	queueMu     sync.Mutex
	queue       []storage.Record
	queueTraces []*trace.Trace
	queueCond   *sync.Cond
	closed      bool
	flushDone   chan struct{}

	// Durability watermarks and their waiters.
	durMu          sync.Mutex
	persistedSeqno uint64
	replicaSeqnos  map[string]uint64 // replica name -> acked seqno
	// replWaiters counts the ops in Do that will wait on replication,
	// from before their mutation exists (ReplicationAwaited).
	replWaiters atomic.Int32
	durCond     *sync.Cond
}

// New creates a vBucket in the given state over the provided storage
// file. The cache hash table starts empty; WarmUp loads persisted
// documents' metadata (and values) back into it.
func New(id int, file *storage.VBFile, state State, cfg Config) *VBucket {
	vb := &VBucket{
		ID:            id,
		Table:         cache.NewHashTable(),
		file:          file,
		cfg:           cfg,
		flushDone:     make(chan struct{}),
		replicaSeqnos: make(map[string]uint64),
	}
	vb.state.Store(int32(state))
	vb.queueCond = sync.NewCond(&vb.queueMu)
	vb.durCond = sync.NewCond(&vb.durMu)
	vb.producer = dcp.NewProducer(id, (*snapshotSource)(vb))
	vb.Table.OnMutate(vb.onMutate)
	vb.durMu.Lock()
	vb.persistedSeqno = file.HighSeqno()
	vb.durMu.Unlock()
	go vb.flusher()
	return vb
}

// WarmUp repopulates the cache from storage after a restart: every
// persisted document's key, metadata, and value return to memory. The
// replayed documents are already durable, so Restore bypasses the
// mutation observer (no re-persistence, no DCP publication).
func (vb *VBucket) WarmUp() error {
	err := vb.file.ScanBySeqno(0, vb.file.HighSeqno(), func(r storage.Record) bool {
		vb.Table.Restore(cache.Item{
			Key: r.Key, Value: r.Value, CAS: r.CAS, RevSeqno: r.RevSeqno,
			Seqno: r.Seqno, Flags: r.Flags, Expiry: r.Expiry, Deleted: r.Deleted,
		})
		return true
	})
	vb.Table.SetHighSeqno(vb.file.HighSeqno())
	return err
}

// onMutate runs under the hash-table lock for every applied mutation,
// in seqno order: enqueue for disk and publish to DCP atomically with
// the cache write. The context is the mutating caller's; its sampled
// trace (if any) rides both the disk-write queue entry and the DCP
// mutation so the asynchronous hops land in the same trace.
func (vb *VBucket) onMutate(ctx context.Context, it cache.Item) {
	tr := trace.TraceFromContext(ctx)
	rec := storage.Record{
		Meta: storage.Meta{
			Key: it.Key, Seqno: it.Seqno, CAS: it.CAS, RevSeqno: it.RevSeqno,
			Flags: it.Flags, Expiry: it.Expiry, Deleted: it.Deleted,
		},
		Value: it.Value,
	}
	vb.queueMu.Lock()
	vb.queue = append(vb.queue, rec)
	if tr != nil {
		vb.queueTraces = append(vb.queueTraces, tr)
	}
	vb.queueMu.Unlock()
	mFlushQueueDepth.Add(1)
	vb.queueCond.Signal()

	vb.producer.Publish(dcp.Mutation{
		Key: it.Key, Value: it.Value, Seqno: it.Seqno, CAS: it.CAS,
		RevSeqno: it.RevSeqno, Flags: it.Flags, Expiry: it.Expiry, Deleted: it.Deleted,
		Trace: tr,
	})
}

// journalSlowCommit publishes a slow-op event naming the blocking
// site. The write path itself never waits on the disk, but a slow
// commit delays the persistence watermark (durability waiters) and —
// on a saturated machine — starves the front-end of CPU; the journal
// entry pins the stall to storage.Append rather than leaving a bare
// latency outlier in the histograms.
func (vb *VBucket) journalSlowCommit(d time.Duration, items int) {
	vb.queueMu.Lock()
	depth := len(vb.queue)
	vb.queueMu.Unlock()
	ev := events.New(events.SlowOp, events.SevWarn, "slow disk commit")
	ev.Fields = map[string]string{
		"site":        "storage.Append",
		"vb":          strconv.Itoa(vb.ID),
		"duration":    d.String(),
		"batch_items": strconv.Itoa(items),
		"queue_depth": strconv.Itoa(depth),
	}
	events.Default.Publish(ev)
}

// flusher drains the disk-write queue. Repeated updates to a document
// within one batch are deduplicated — "asynchrony ... provides an
// opportunity for repeated updates to an object to be aggregated at the
// level of persistence" (§2.3.2).
func (vb *VBucket) flusher() {
	defer close(vb.flushDone)
	// The flusher's own memory: the queue slice it drained last, which
	// becomes the next queue.
	var spare []storage.Record
	for {
		vb.queueMu.Lock()
		for len(vb.queue) == 0 && !vb.closed {
			vb.queueCond.Wait()
		}
		if vb.closed && len(vb.queue) == 0 {
			vb.queueMu.Unlock()
			return
		}
		drained := vb.queue
		n := min(len(drained), maxFlushBatch)
		vb.queue = append(spare[:0], drained[n:]...)
		// A trace is taken with the batch that empties the queue, so its
		// commit span never ends before its mutation is on disk.
		var traces []*trace.Trace
		if n == len(drained) {
			traces, vb.queueTraces = vb.queueTraces, nil
		}
		vb.queueMu.Unlock()
		mFlushQueueDepth.Add(int64(-n))

		recs := dedupBatch(drained[:n])
		mFlushBatchItems.ObserveValue(uint64(len(recs)))
		// One commit span per distinct trace in the batch, parented at
		// the trace root (the client span ended long ago).
		var commitSpans []*trace.Span
		for i, tr := range traces {
			if slices.Contains(traces[:i], tr) {
				continue
			}
			sp := tr.StartSpan("storage:commit")
			sp.Annotate("vb", strconv.Itoa(vb.ID))
			sp.Annotate("batch_items", strconv.Itoa(len(recs)))
			commitSpans = append(commitSpans, sp)
		}
		t0 := time.Now()
		if vb.cfg.DiskDelay > 0 {
			time.Sleep(vb.cfg.DiskDelay)
		}
		if err := vb.file.Append(recs); err != nil {
			// The file is closed (shutdown) or the disk failed; either
			// way the flusher stops. Unpersisted mutations remain in
			// memory and in replicas — the paper's durability model.
			for _, sp := range commitSpans {
				sp.Error(err)
				sp.End()
			}
			return
		}
		mFlushDuration.ObserveSince(t0)
		if d := time.Since(t0); d > slowOpThreshold {
			vb.journalSlowCommit(d, len(recs))
		}
		for _, sp := range commitSpans {
			sp.End()
		}
		var high uint64
		for i := range recs {
			high = max(high, recs[i].Seqno)
		}
		vb.durMu.Lock()
		if high > vb.persistedSeqno {
			vb.persistedSeqno = high
		}
		vb.durMu.Unlock()
		vb.durCond.Broadcast()

		// Recycled slots are cleared so they pin no key or value; a slice
		// that grew for a burst is left to the GC.
		clear(drained)
		if spare = drained; cap(spare) > dcp.MaxKeptBatch {
			spare = nil
		}
	}
}

// dedupBatch keeps only the newest record per key, preserving the order
// of the survivors. The queue is in the order the cache applied, so a
// record is superseded when its key recurs after it; the batches of a
// flusher that keeps up are a few records, which a scan settles without
// building a map.
func dedupBatch(batch []storage.Record) []storage.Record {
	var last map[string]int // key -> index of its newest record
	if len(batch) > dedupScanMax {
		last = make(map[string]int, len(batch))
		for i := range batch {
			last[batch[i].Key] = i
		}
	}
	out := batch[:0]
	for i := range batch {
		newest := true
		if last != nil {
			newest = last[batch[i].Key] == i
		} else {
			for j := i + 1; j < len(batch) && newest; j++ {
				newest = batch[j].Key != batch[i].Key
			}
		}
		if newest {
			out = append(out, batch[i])
		}
	}
	return out
}

// dedupScanMax is the largest batch dedupBatch scans pairwise.
const dedupScanMax = 16

// State returns the current partition state.
func (vb *VBucket) State() State { return State(vb.state.Load()) }

// SetState transitions the partition (rebalance switchover, failover
// promotion). Promoting to Active lets the seqno clock continue from
// whatever the replica had applied.
func (vb *VBucket) SetState(s State) {
	vb.state.Store(int32(s))
}

// Producer exposes the vBucket's DCP producer for consumers (replicas,
// views, GSI, FTS, XDCR).
func (vb *VBucket) Producer() *dcp.Producer { return vb.producer }

// HighSeqno is the vBucket's current mutation high-water mark.
func (vb *VBucket) HighSeqno() uint64 { return vb.Table.HighSeqno() }

// PersistedSeqno is the highest seqno known flushed to disk.
func (vb *VBucket) PersistedSeqno() uint64 {
	vb.durMu.Lock()
	defer vb.durMu.Unlock()
	return vb.persistedSeqno
}

// QueueDepth is the number of mutations waiting in the disk-write
// queue — the drain backlog operators watch on a memory-first store.
func (vb *VBucket) QueueDepth() int {
	vb.queueMu.Lock()
	defer vb.queueMu.Unlock()
	return len(vb.queue)
}

// ApplyReplica installs a mutation received over a DCP replication
// stream, preserving origin metadata. Valid in Replica/Pending states.
func (vb *VBucket) ApplyReplica(m dcp.Mutation) {
	ctx := context.Background()
	if m.Trace != nil {
		sp := m.Trace.StartSpan("replica:apply")
		sp.Annotate("vb", strconv.Itoa(vb.ID))
		defer sp.End()
		ctx = trace.ContextWith(ctx, sp)
	}
	vb.Table.ApplyMeta(ctx, cache.Item{
		Key: m.Key, Value: m.Value, CAS: m.CAS, RevSeqno: m.RevSeqno,
		Seqno: m.Seqno, Flags: m.Flags, Expiry: m.Expiry, Deleted: m.Deleted,
	})
}

// --- Durability (per-mutation options, §2.3.2) ---

// AckReplica records that the named replica has applied up to seqno.
// The intra-cluster replicator calls this as acks arrive.
func (vb *VBucket) AckReplica(name string, seqno uint64) {
	vb.durMu.Lock()
	if seqno > vb.replicaSeqnos[name] {
		vb.replicaSeqnos[name] = seqno
	}
	vb.durMu.Unlock()
	vb.durCond.Broadcast()
}

// ReplicationAwaited reports whether an op with ReplicateTo is in
// flight: what a remote replica is sent meanwhile, it must ack.
func (vb *VBucket) ReplicationAwaited() bool { return vb.replWaiters.Load() > 0 }

// SetReplicaSet prunes acknowledgement state to the given replica
// names. Rebalance/failover call this so durability waits never count
// acks from replicas that no longer exist.
func (vb *VBucket) SetReplicaSet(names []string) {
	keep := make(map[string]bool, len(names))
	for _, n := range names {
		keep[n] = true
	}
	vb.durMu.Lock()
	for n := range vb.replicaSeqnos {
		if !keep[n] {
			delete(vb.replicaSeqnos, n)
		}
	}
	vb.durMu.Unlock()
	vb.durCond.Broadcast()
}

// WaitPersist blocks until seqno is flushed to this node's disk —
// PersistTo(1) in SDK terms — or ctx is cancelled.
func (vb *VBucket) WaitPersist(ctx context.Context, seqno uint64, timeout time.Duration) error {
	//couchvet:ignore unlockedescape -- the condition closure runs under durMu inside waitDur (sync.Cond pattern)
	return vb.waitDur(ctx, timeout, func() bool { return vb.persistedSeqno >= seqno })
}

// WaitReplicas blocks until at least n replicas acknowledged seqno —
// ReplicateTo(n) — or ctx is cancelled. "Since replication is
// memory-to-memory, the latency hit with the replication option is
// significantly less than waiting for persistence."
func (vb *VBucket) WaitReplicas(ctx context.Context, seqno uint64, n int, timeout time.Duration) error {
	return vb.waitDur(ctx, timeout, func() bool {
		count := 0
		//couchvet:ignore unlockedescape -- the condition closure runs under durMu inside waitDur (sync.Cond pattern)
		for _, s := range vb.replicaSeqnos {
			if s >= seqno {
				count++
			}
		}
		return count >= n
	})
}

// waitDur waits on the durability condition with a deadline. The
// condition is evaluated under durMu. Both the timeout and ctx
// cancellation wake the wait through the condition variable's
// Broadcast, so an abandoned request releases its waiter immediately
// instead of holding it until the durability timeout fires.
func (vb *VBucket) waitDur(ctx context.Context, timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() { vb.durCond.Broadcast() })
	defer timer.Stop()
	stop := context.AfterFunc(ctx, func() { vb.durCond.Broadcast() })
	defer stop()
	vb.durMu.Lock()
	defer vb.durMu.Unlock()
	for !cond() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if time.Now().After(deadline) {
			return ErrTimeout
		}
		vb.durCond.Wait()
	}
	return nil
}

// DrainDisk blocks until every mutation issued so far is persisted.
// Tests and orderly shutdown use it; neither has a request ctx.
func (vb *VBucket) DrainDisk(timeout time.Duration) error {
	return vb.WaitPersist(context.Background(), vb.HighSeqno(), timeout)
}

// Close stops the flusher after draining the queue and shuts down DCP.
// The storage file itself is owned by the Store and closed separately.
func (vb *VBucket) Close() {
	vb.queueMu.Lock()
	if vb.closed {
		vb.queueMu.Unlock()
		return
	}
	vb.closed = true
	vb.queueMu.Unlock()
	vb.queueCond.Broadcast()
	<-vb.flushDone
	vb.producer.Close()
}

// snapshotSource adapts the vBucket to dcp.SnapshotSource: the
// deduplicated latest versions (including tombstones) come from the
// hash table, with evicted values restored from storage.
type snapshotSource VBucket

func (s *snapshotSource) Snapshot(fromExclusive uint64) ([]dcp.Mutation, uint64, error) {
	vb := (*VBucket)(s)
	var items []dcp.Mutation
	var readErr error
	// high is the max seqno observed in the table snapshot itself, NOT
	// Table.HighSeqno() read afterwards: a mutation applied during the
	// scan may be missing from the snapshot, and a too-high watermark
	// would make the stream dedup (drop) its live copy.
	var high uint64
	inCache := map[string]bool{}
	vb.Table.ForEachAll(func(it cache.Item) bool {
		inCache[it.Key] = true
		if it.Seqno > high {
			high = it.Seqno
		}
		if it.Seqno <= fromExclusive {
			return true
		}
		m := dcp.Mutation{
			Key: it.Key, Value: it.Value, Seqno: it.Seqno, CAS: it.CAS,
			RevSeqno: it.RevSeqno, Flags: it.Flags, Expiry: it.Expiry, Deleted: it.Deleted,
		}
		if !it.Deleted && !it.Resident {
			rec, err := vb.file.Get(it.Key)
			if err != nil {
				readErr = err
				return false
			}
			m.Value = rec.Value
		}
		items = append(items, m)
		return true
	})
	if readErr != nil {
		return nil, 0, readErr
	}
	// Full-eviction mode: documents may exist only on disk. Merge the
	// storage engine's latest versions for keys absent from the cache
	// (anything present in the cache is at least as new in memory).
	if vb.cfg.FullEviction {
		err := vb.file.ScanBySeqno(fromExclusive, vb.file.HighSeqno(), func(r storage.Record) bool {
			if inCache[r.Key] {
				return true
			}
			items = append(items, dcp.Mutation{
				Key: r.Key, Value: r.Value, Seqno: r.Seqno, CAS: r.CAS,
				RevSeqno: r.RevSeqno, Flags: r.Flags, Expiry: r.Expiry, Deleted: r.Deleted,
			})
			if r.Seqno > high {
				high = r.Seqno
			}
			return true
		})
		if err != nil {
			return nil, 0, err
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].Seqno < items[j].Seqno })
	return items, high, nil
}
