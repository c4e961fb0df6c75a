package core

import (
	"context"

	"couchgo/internal/cmap"
)

// loopbackRouter is the in-process Router: the bucket's live map and
// direct-call conns. It preserves the exact pre-transport behavior —
// the map read is always current (no epoch tracking needed) and a conn
// is a method call away. Both are reads of published state
// (published.go): no lock, nothing allocated.
type loopbackRouter struct {
	c      *Cluster
	bucket string
}

func (r loopbackRouter) BucketMap() (*cmap.Map, error) { return r.c.BucketMap(r.bucket) }

func (r loopbackRouter) Conn(id cmap.NodeID) (NodeConn, error) { return r.c.LoopbackConn(id, r.bucket) }

// loopbackConn is where both transports end up, the loopback router by
// direct call and the TCP server after decoding the request frame: it
// finds the node's copy of the vBucket and hands the op to vbucket.Do,
// so an op is executed (and a durable one waited for) in the serving
// process before it is acknowledged. There is one per node and bucket
// name (Node.conn), handed out by pointer.
type loopbackConn struct {
	node   *Node
	bucket string
}

var _ NodeConn = (*loopbackConn)(nil)

func (lc *loopbackConn) Do(ctx context.Context, vbID int, op Op) (res Result, err error) {
	vb, err := lc.node.kvVB(lc.bucket, vbID)
	if err != nil {
		return res, err
	}
	return vb.Do(ctx, &op)
}
