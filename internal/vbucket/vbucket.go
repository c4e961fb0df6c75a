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
	// stageCommit is one flusher batch's Append and fsync, a span on
	// each trace the batch carries.
	stageCommit = trace.NewStage("storage:commit")
	// mFlushQueueDepth is the process-wide disk-write queue backlog
	// (entries enqueued by onMutate, not yet handed to storage). A
	// persistently high value means the flushers cannot keep up.
	mFlushQueueDepth = metrics.Default.Gauge("couchgo_flusher_queue_depth")
)

// slowOpThreshold is how long one flusher disk commit may take before
// a slow-op event is journaled naming the blocking site. Front-end
// max-latency outliers of hundreds of milliseconds on a one-core host
// traced to disk commits (fsync, and compaction competing for the
// device) monopolizing the core; the journal entry makes the next stall
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
)

// maxFlushBatch bounds how many queued mutations one flush drains.
const maxFlushBatch = 4096

// Config tunes a vBucket.
type Config struct {
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

	// log is the flusher's cursor in the producer's log: the disk-write
	// queue of Figure 6 is the entries it has not given back.
	log       *dcp.Cursor
	flushDone chan struct{}

	// Durability watermarks and their waiters.
	durMu          sync.Mutex
	persistedSeqno uint64
	replicaSeqnos  map[string]uint64 // replica name -> acked seqno
	// replWaiters and persistWaiters count the ops in Do that will wait
	// on replication (ReplicationAwaited) and on persistence (the
	// flusher's waited appends), from before their mutation exists.
	replWaiters    atomic.Int32
	persistWaiters atomic.Int32
	durCond        *sync.Cond
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
	vb.SetState(state)
	vb.durCond = sync.NewCond(&vb.durMu)
	vb.producer = dcp.NewProducer(id, (*snapshotSource)(vb))
	vb.log = vb.producer.NewCursor()
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
		}, nil)
		return true
	})
	vb.Table.SetHighSeqno(vb.file.HighSeqno())
	return err
}

// onMutate runs under the hash-table lock for every applied mutation,
// in seqno order: it appends the mutation to the producer's log, which
// the flusher and every DCP stream read, atomically with the cache
// write. The context is the mutating caller's; its sampled trace (if
// any) rides the entry so the asynchronous hops land in the same trace.
func (vb *VBucket) onMutate(ctx context.Context, it cache.Item) {
	mFlushQueueDepth.Add(1)
	vb.producer.Publish(dcp.Mutation{
		Key: it.Key, Value: it.Value, Seqno: it.Seqno, CAS: it.CAS,
		RevSeqno: it.RevSeqno, Flags: it.Flags, Expiry: it.Expiry, Deleted: it.Deleted,
		Trace: trace.TraceFromContext(ctx),
	})
}

// journalSlowCommit publishes a slow-op event naming the blocking
// site. The write path itself never waits on the disk, but a slow
// commit delays the persistence watermark (durability waiters) and —
// on a saturated machine — starves the front-end of CPU; the journal
// entry pins the stall to storage.Append rather than leaving a bare
// latency outlier in the histograms.
func (vb *VBucket) journalSlowCommit(d time.Duration, items int) {
	ev := events.New(events.SlowOp, events.SevWarn, "slow disk commit")
	ev.Fields = map[string]string{
		"site":        "storage.Append",
		"vb":          strconv.Itoa(vb.ID),
		"duration":    d.String(),
		"batch_items": strconv.Itoa(items),
		"queue_depth": strconv.Itoa(vb.QueueDepth()),
	}
	events.Default.Publish(ev)
}

// flusher drains its cursor of the log. Repeated updates to a document
// within one batch are deduplicated — "asynchrony ... provides an
// opportunity for repeated updates to an object to be aggregated at the
// level of persistence" (§2.3.2).
func (vb *VBucket) flusher() {
	defer close(vb.flushDone)
	defer vb.log.Close()
	// The flusher's own memory: the records and traces of one batch,
	// converted from the log's entries, and dedup's index of their keys,
	// each cleared once the batch is appended.
	var recs []storage.Record
	var traces []*trace.Trace
	last := map[string]int{}
	convert := func(run []dcp.Mutation, ready int) {
		recs = slices.Grow(recs, ready-len(recs))
		for i := range run {
			m := &run[i]
			recs = append(recs, storage.Record{Meta: storage.Meta{
				Key: m.Key, Seqno: m.Seqno, CAS: m.CAS, RevSeqno: m.RevSeqno,
				Flags: m.Flags, Expiry: m.Expiry, Deleted: m.Deleted,
			}, Value: m.Value})
			if m.Trace != nil {
				traces = append(traces, m.Trace)
			}
		}
	}
	for vb.log.Read(maxFlushBatch, convert) {
		n := len(recs)
		mFlushQueueDepth.Add(int64(-n))
		// A PersistTo op counted itself before its mutation was queued,
		// so the batch holding that mutation is appended waited: its
		// fsync skips the device round.
		waited := vb.persistWaiters.Load() > 0

		batch := dedupBatch(recs, last)
		mFlushBatchItems.ObserveValue(uint64(len(batch)))
		t0 := time.Now()
		if vb.cfg.DiskDelay > 0 {
			time.Sleep(vb.cfg.DiskDelay)
		}
		err := vb.file.Append(batch, waited)
		end := time.Now()
		stageCommit.Batch(len(traces), func(i int) *trace.Trace { return traces[i] }, t0, end, err, func(sp *trace.Span) {
			sp.Annotate("vb", strconv.Itoa(vb.ID))
			sp.Annotate("batch_items", strconv.Itoa(len(batch)))
			if waited {
				sp.Annotate("waited", "true")
			}
		})
		if err != nil {
			// The file is closed (shutdown) or the disk failed; either
			// way the flusher stops. Unpersisted mutations remain in
			// memory and in replicas — the paper's durability model.
			return
		}
		if d := end.Sub(t0); d > slowOpThreshold {
			vb.journalSlowCommit(d, len(batch))
		}
		// The log is in seqno order, and so are dedup's survivors.
		high := batch[len(batch)-1].Seqno
		vb.durMu.Lock()
		if high > vb.persistedSeqno {
			vb.persistedSeqno = high
		}
		vb.durMu.Unlock()
		vb.durCond.Broadcast()

		// Recycled slots are cleared so they pin no key or value; what
		// grew for a burst is kept only while the backlog needs it.
		clear(recs[:n])
		clear(traces)
		clear(last)
		if recs, traces = recs[:0], traces[:0]; cap(recs) > dcp.MaxKeptBatch && vb.log.Pending() <= dcp.MaxKeptBatch {
			recs, last = nil, map[string]int{}
		}
	}
}

// dedupBatch keeps only the newest record per key, preserving the order
// of the survivors. The queue is in the order the cache applied, so a
// record is superseded when its key recurs after it; the batches of a
// flusher that keeps up are a few records, which a scan settles without
// a map. A longer batch indexes its keys in last (key -> index of its
// newest record), the caller's empty map.
func dedupBatch(batch []storage.Record, last map[string]int) []storage.Record {
	if len(batch) <= dedupScanMax {
		last = nil
	}
	for i := 0; last != nil && i < len(batch); i++ {
		last[batch[i].Key] = i
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
// promotion, demotion). Promoting to Active lets the seqno clock
// continue from whatever the replica had applied. Any other state seals
// the table: a mutation that passed Do's state check before the
// transition but had not committed is refused, so the HighSeqno read
// after it covers every write this copy acknowledged. Replica applies
// and restorations still land; an expired item waits for the active.
func (vb *VBucket) SetState(s State) {
	vb.Table.Seal(s != Active)
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

// QueueDepth is the number of mutations not yet appended to the file,
// the batch being appended included — the drain backlog operators
// watch on a memory-first store.
func (vb *VBucket) QueueDepth() int { return vb.log.Pending() }

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
	vb.log.Stop()
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
