package core

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/events"
	"couchgo/internal/memcproto"
	"couchgo/internal/trace"
	"couchgo/internal/vbucket"
)

// loopbackRouter is the in-process Router: the bucket's live map and
// direct-call conns. It preserves the exact pre-transport behavior —
// the map read is always current (no epoch tracking needed) and a conn
// is a method call away.
type loopbackRouter struct {
	c      *Cluster
	bucket string
}

func (r loopbackRouter) BucketMap() (*cmap.Map, error) { return r.c.BucketMap(r.bucket) }

func (r loopbackRouter) Conn(id cmap.NodeID) (NodeConn, error) { return r.c.LoopbackConn(id, r.bucket) }

// loopbackConn is the single KV executor: both transports end up in
// its Do, the loopback router by direct call and the TCP server after
// decoding the request frame, so the durability wait of a Set/Delete
// runs in the serving process before the op is acknowledged.
type loopbackConn struct {
	node   *Node
	bucket string
}

var _ NodeConn = loopbackConn{}

var errUnknownOp = errors.New("core: no executor for opcode")

func (lc loopbackConn) Do(ctx context.Context, vbID int, op Op) (res Result, err error) {
	vb, err := lc.node.kvVB(lc.bucket, vbID)
	if err != nil {
		return res, err
	}
	switch op.Code {
	case memcproto.OpGet:
		res.Item, err = vb.Get(ctx, op.Key, op.Now)
	case memcproto.OpSet:
		res.Item, err = vb.Set(ctx, op.Key, op.Value, op.Flags, op.Expiry, op.CAS, op.Now)
	case memcproto.OpAdd:
		res.Item, err = vb.Add(ctx, op.Key, op.Value, op.Flags, op.Expiry, op.Now)
	case memcproto.OpReplace:
		res.Item, err = vb.Replace(ctx, op.Key, op.Value, op.Flags, op.Expiry, op.CAS, op.Now)
	case memcproto.OpDelete:
		res.Item, err = vb.Delete(ctx, op.Key, op.CAS, op.Now)
	case memcproto.OpTouch:
		_, err = vb.Touch(ctx, op.Key, op.Expiry, op.Now)
	case memcproto.OpGetAndLock:
		res.Item, err = vb.GetAndLock(ctx, op.Key, op.Expiry, op.Now)
	case memcproto.OpUnlock:
		err = vb.Unlock(ctx, op.Key, op.CAS, op.Now)
	case memcproto.OpAppendVal:
		res.Item, err = vb.Append(ctx, op.Key, op.Value, op.CAS, op.Now)
	case memcproto.OpPrependVal:
		res.Item, err = vb.Prepend(ctx, op.Key, op.Value, op.CAS, op.Now)
	case memcproto.OpGetMeta:
		res.Item, err = vb.GetMeta(op.Key)
	case memcproto.OpSubdocGet:
		res.Doc, err = vb.SubdocGet(ctx, op.Key, op.Path, op.Now)
	case memcproto.OpSubdocSet:
		res.Item, err = vb.SubdocSet(ctx, op.Key, op.Path, op.Doc, op.CAS, op.Now)
	case memcproto.OpSubdocRemove:
		res.Item, err = vb.SubdocRemove(ctx, op.Key, op.Path, op.CAS, op.Now)
	case memcproto.OpSubdocArrAdd:
		res.Item, err = vb.SubdocArrayAppend(ctx, op.Key, op.Path, op.Doc, op.CAS, op.Now)
	case memcproto.OpSubdocCounter:
		var n float64
		n, _, err = vb.SubdocCounter(ctx, op.Key, op.Path, op.Delta, op.CAS, op.Now)
		res.Doc = n
	case memcproto.OpXDCRSet:
		res.Applied, err = vb.ApplyRemote(ctx, op.Key, op.Value, op.Deleted, op.CAS, op.RevSeqno, op.Flags, op.Expiry)
	default:
		return res, fmt.Errorf("%w %s", errUnknownOp, op.Code)
	}
	if err == nil && memcproto.SpecOf(op.Code).Durable {
		err = waitDurability(ctx, vb, res.Item.Seqno, op.Dur)
	}
	return res, err
}

// waitDurability blocks until the mutation's durability requirement
// holds. The wait gets its own span — on a slow durable write it is
// usually the whole story.
func waitDurability(ctx context.Context, vb *vbucket.VBucket, seqno uint64, dur DurabilityOptions) error {
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
	if dur.ReplicateTo > 0 {
		if err := vb.WaitReplicas(ctx, seqno, dur.ReplicateTo, timeout); err != nil {
			sp.Error(err)
			publishDurabilityEvent(ctx, "replicate", seqno, err)
			return err
		}
	}
	if dur.PersistTo {
		if err := vb.WaitPersist(ctx, seqno, timeout); err != nil {
			sp.Error(err)
			publishDurabilityEvent(ctx, "persist", seqno, err)
			return err
		}
	}
	return nil
}

// publishDurabilityEvent journals a failed durability wait — the write
// was accepted but its replication/persistence guarantee was not met
// in time, exactly the condition an operator needs to see.
func publishDurabilityEvent(ctx context.Context, kind string, seqno uint64, err error) {
	e := events.New(events.Durability, events.SevWarn, "durability wait failed")
	e.Fields = map[string]string{
		"kind":  kind,
		"seqno": strconv.FormatUint(seqno, 10),
		"error": err.Error(),
	}
	if t := trace.TraceFromContext(ctx); t != nil {
		e.TraceID = t.ID
	}
	events.Default.Publish(e)
}
