package vbucket

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"couchgo/internal/cache"
	"couchgo/internal/events"
	"couchgo/internal/memcproto"
	"couchgo/internal/metrics"
	"couchgo/internal/storage"
	"couchgo/internal/trace"
)

// Op is one KV request as a plain value: the opcode plus the union of
// every op's arguments. Which fields an op reads is fixed by the
// extras layout of its memcproto.OpSpec row; the rest stay zero. It
// crosses core.NodeConn.Do by value and Do by pointer without
// escaping, so a caller's Op stays on its stack on the loopback path
// (core.TestLoopbackDoGetZeroAlloc).
type Op struct {
	Code    memcproto.Opcode
	Deleted bool   // XDCR: the mutation is a deletion
	Flags   uint32 // Set/Add/Replace/XDCR document flags
	Key     string
	Value   []byte // document body; Append/Prepend data
	CAS     uint64 // optimistic-lock check; Unlock's token; XDCR's source CAS
	// Now is the client's unix-seconds clock, threaded through so
	// expiry semantics follow the client's (injectable) time source on
	// both transports.
	Now int64
	// Expiry is the document expiry (Set/Add/Replace/Touch/XDCR) or,
	// for GetAndLock, the lock duration in seconds — the one u64 the
	// now‖u64 layout carries.
	Expiry   int64
	RevSeqno uint64  // XDCR conflict-resolution revision
	Path     string  // subdoc path
	Doc      any     // subdoc Set/ArrayAppend payload
	Delta    float64 // subdoc Counter increment
	Dur      DurabilityOptions
}

// Result is what an op returns; the row's response shape says which
// field is meaningful.
type Result struct {
	Item    cache.Item // ShapeItem
	Doc     any        // ShapeJSON: SubdocGet's value, SubdocCounter's float64
	Applied bool       // ShapeBool: whether XDCR's incoming revision won
}

// DurabilityOptions are the per-mutation durability knobs of §2.3.2:
// "client applications are given a choice of whether or not to wait
// for replication and/or for persistence on a per mutation basis."
type DurabilityOptions struct {
	// ReplicateTo waits until that many replicas acknowledged.
	ReplicateTo int
	// PersistTo, when true, waits for persistence on the active node.
	PersistTo bool
	// Timeout bounds the durability wait (default 10s).
	Timeout time.Duration
}

// ErrUnknownOp is Do's answer to an opcode with no table row or no arm.
var ErrUnknownOp = errors.New("vbucket: no executor for opcode")

// opSeries is one op's exact counter and sampled latency histogram.
type opSeries struct {
	ops *metrics.Counter
	lat *metrics.Histogram
}

func newOpSeries(label string) opSeries {
	return opSeries{
		ops: metrics.Default.Counter("couchgo_kv_ops_total", "op", label),
		lat: metrics.Default.Histogram("couchgo_kv_op_duration_seconds", "op", label),
	}
}

// kvSeries is every row's series indexed by opcode, resolved once so Do
// never touches the registry. casSeries is a set carrying a CAS check.
var (
	kvSeries = func() []opSeries {
		rows := memcproto.KVOps() // in opcode order
		out := make([]opSeries, rows[len(rows)-1].Code+1)
		for _, spec := range rows {
			out[spec.Code] = newOpSeries(spec.Name)
		}
		return out
	}()
	casSeries = newOpSeries("cas")
)

// Do is the one KV executor: every op of the table, from both
// transports, runs here, driven by its memcproto.OpSpec row. The
// preamble is the same for all of them: state check, the row's cache:*
// span, its ops counter and sampled latency, then the residency rule.
// (i) Under FullEviction a key absent from the table is first restored
// from storage, so every op (XDCR conflict resolution included) sees
// the revision the disk holds. (ii) An arm that needs an evicted value
// answers cache.ErrValueEvicted having changed nothing; Do fetches the
// value and runs the arm again with it in hand, so the pager cannot
// win that race a second time and the error never leaves Do. A Durable
// row then waits for its durability requirement before the op is
// acknowledged.
func (vb *VBucket) Do(ctx context.Context, op *Op) (res Result, err error) {
	spec := memcproto.SpecOf(op.Code)
	if spec == nil {
		return res, fmt.Errorf("%w %s", ErrUnknownOp, op.Code)
	}
	if st := vb.State(); st != Active && !spec.AnyState {
		return res, fmt.Errorf("%w (vb %d is %s)", ErrNotMyVBucket, vb.ID, st)
	}
	if op.Dur.ReplicateTo > 0 {
		vb.replWaiters.Add(1) // before the arm: the mutation is pumped before the wait begins
		defer vb.replWaiters.Add(-1)
	}
	// A child of the caller's span, never a new root: sampling belongs
	// to the client and query entry points.
	sp := trace.FromContext(ctx).Child(spec.CacheSpan)
	tctx := trace.ContextWith(ctx, sp)
	m := &kvSeries[op.Code]
	if op.Code == memcproto.OpSet && op.CAS != 0 {
		m = &casSeries
	}
	m.ops.Inc()
	t0, timed := metrics.Sample()

	var fetched cache.Fetched
	restored := false
	if vb.cfg.FullEviction {
		restored, err = vb.restoreItem(op.Key)
	}
	for err == nil {
		switch op.Code {
		case memcproto.OpGet:
			res.Item, err = vb.Table.GetWith(op.Key, op.Now, fetched)
		case memcproto.OpSet:
			res.Item, err = vb.Table.Set(tctx, op.Key, op.Value, op.Flags, op.Expiry, op.CAS, op.Now)
		case memcproto.OpAdd:
			res.Item, err = vb.Table.Add(tctx, op.Key, op.Value, op.Flags, op.Expiry, op.Now)
		case memcproto.OpReplace:
			res.Item, err = vb.Table.Replace(tctx, op.Key, op.Value, op.Flags, op.Expiry, op.CAS, op.Now)
		case memcproto.OpDelete:
			res.Item, err = vb.Table.Delete(tctx, op.Key, op.CAS, op.Now)
		case memcproto.OpTouch:
			_, err = vb.Table.Touch(tctx, op.Key, op.Expiry, op.Now, fetched)
		case memcproto.OpGetAndLock:
			res.Item, err = vb.Table.GetAndLock(op.Key, op.Expiry, op.Now, fetched)
		case memcproto.OpUnlock:
			err = vb.Table.Unlock(op.Key, op.CAS, op.Now)
		case memcproto.OpAppendVal:
			res.Item, err = vb.Table.Append(tctx, op.Key, op.Value, op.CAS, op.Now, fetched)
		case memcproto.OpPrependVal:
			res.Item, err = vb.Table.Prepend(tctx, op.Key, op.Value, op.CAS, op.Now, fetched)
		case memcproto.OpGetMeta:
			res.Item, err = vb.Table.GetMeta(op.Key)
		case memcproto.OpSubdocGet:
			res.Doc, err = vb.Table.SubdocGet(op.Key, op.Path, op.Now, fetched)
		case memcproto.OpSubdocSet:
			res.Item, err = vb.Table.SubdocSet(tctx, op.Key, op.Path, op.Doc, op.CAS, op.Now, fetched)
		case memcproto.OpSubdocRemove:
			res.Item, err = vb.Table.SubdocRemove(tctx, op.Key, op.Path, op.CAS, op.Now, fetched)
		case memcproto.OpSubdocArrAdd:
			res.Item, err = vb.Table.SubdocArrayAppend(tctx, op.Key, op.Path, op.Doc, op.CAS, op.Now, fetched)
		case memcproto.OpSubdocCounter:
			res.Doc, _, err = vb.Table.SubdocCounter(tctx, op.Key, op.Path, op.Delta, op.CAS, op.Now, fetched)
		case memcproto.OpXDCRSet:
			res.Applied = vb.Table.ApplyRemote(tctx, op.Key, op.Value, op.Deleted, op.CAS, op.RevSeqno, op.Flags, op.Expiry)
		default:
			err = fmt.Errorf("%w %s", ErrUnknownOp, op.Code)
		}
		if err != cache.ErrValueEvicted {
			break
		}
		// The arm misses again only if the table has meanwhile moved to
		// a revision other than the one the disk answered with.
		if err = ctx.Err(); err == nil {
			fetched, err = vb.fetch(op.Key)
			restored = true
		}
	}

	if restored {
		sp.Annotate("bgfetch", "true")
	} else if op.Code == memcproto.OpGet {
		if err == nil {
			mCacheHits.Inc()
		} else {
			mCacheMisses.Inc()
		}
	}
	if timed {
		m.lat.ObserveSince(t0)
	}
	if sp != nil {
		if err == nil && res.Item.Seqno != 0 {
			sp.Annotate("seqno", strconv.FormatUint(res.Item.Seqno, 10))
		}
		sp.Error(err)
		sp.End()
	}
	if err == nil && spec.Durable {
		err = vb.waitDurability(ctx, res.Item.Seqno, op.Dur)
	}
	return res, err
}

// Get is Do(get) spelled for a caller that holds the *VBucket itself
// (bench/'s layer replica, tests); with Set it is the only per-op
// method, and neither adds anything to Do.
func (vb *VBucket) Get(ctx context.Context, key string, now int64) (cache.Item, error) {
	res, err := vb.Do(ctx, &Op{Code: memcproto.OpGet, Key: key, Now: now})
	return res.Item, err
}

// Set is Do(set), as Get is Do(get).
func (vb *VBucket) Set(ctx context.Context, key string, value []byte, flags uint32, expiry int64, casCheck uint64, now int64) (cache.Item, error) {
	res, err := vb.Do(ctx, &Op{Code: memcproto.OpSet, Key: key, Value: value, Flags: flags, Expiry: expiry, CAS: casCheck, Now: now})
	return res.Item, err
}

// restoreItem is the residency rule's first half: it brings a key the
// table does not hold back from storage (metadata, and the value unless
// it is a tombstone), reporting whether there was anything to restore.
func (vb *VBucket) restoreItem(key string) (bool, error) {
	if _, err := vb.Table.GetMeta(key); err != cache.ErrKeyNotFound {
		return false, nil
	}
	rec, err := vb.file.GetNewest(key)
	if errors.Is(err, storage.ErrNotFound) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("vbucket: bgfetch %s: %w", key, err)
	}
	vb.Table.Restore(cache.Item{
		Key: key, Value: rec.Value, CAS: rec.CAS, RevSeqno: rec.RevSeqno, Seqno: rec.Seqno,
		Flags: rec.Flags, Expiry: rec.Expiry, Deleted: rec.Deleted,
	})
	mBgFetches.Inc()
	return true, nil
}

// fetch is the residency rule's second half: the persisted value of
// key, stamped with the seqno of the revision it belongs to.
func (vb *VBucket) fetch(key string) (cache.Fetched, error) {
	rec, err := vb.file.Get(key)
	if err != nil {
		return cache.Fetched{}, fmt.Errorf("vbucket: bgfetch %s: %w", key, err)
	}
	mBgFetches.Inc()
	return cache.Fetched{Seqno: rec.Seqno, Value: rec.Value}, nil
}

// waitDurability blocks until the mutation's durability requirement
// holds. The wait gets its own span — on a slow durable write it is
// usually the whole story.
func (vb *VBucket) waitDurability(ctx context.Context, seqno uint64, dur DurabilityOptions) error {
	if dur.ReplicateTo <= 0 && !dur.PersistTo {
		return nil
	}
	sp := trace.FromContext(ctx).Child("durability:wait")
	if sp != nil {
		sp.Annotate("replicate_to", strconv.Itoa(dur.ReplicateTo))
		sp.Annotate("persist_to", strconv.FormatBool(dur.PersistTo))
		defer sp.End()
	}
	timeout := dur.Timeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	var err error
	kind := "replicate"
	if dur.ReplicateTo > 0 {
		err = vb.WaitReplicas(ctx, seqno, dur.ReplicateTo, timeout)
	}
	if err == nil && dur.PersistTo {
		kind = "persist"
		err = vb.WaitPersist(ctx, seqno, timeout)
	}
	if err != nil {
		sp.Error(err)
		// The write was accepted but its guarantee was not met in time,
		// exactly the condition an operator needs to see.
		e := events.New(events.Durability, events.SevWarn, "durability wait failed")
		e.Fields = map[string]string{"kind": kind, "seqno": strconv.FormatUint(seqno, 10), "error": err.Error()}
		if t := trace.TraceFromContext(ctx); t != nil {
			e.TraceID = t.ID
		}
		events.Default.Publish(e)
	}
	return err
}
