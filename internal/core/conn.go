package core

import (
	"context"
	"errors"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/vbucket"
)

// ErrNodeUnreachable marks transient transport failures (dial refused,
// connection reset, pool drained). The client's route loop retries them
// with the same capped backoff it uses for a stale map, because they
// mean the same thing operationally: the topology the client believes
// in and the one that exists have diverged for a moment.
var ErrNodeUnreachable = errors.New("core: node unreachable")

// Op, Result and DurabilityOptions are declared by the package that
// executes them; core names them for the client and transport layers.
type (
	Op                = vbucket.Op
	Result            = vbucket.Result
	DurabilityOptions = vbucket.DurabilityOptions
)

// NodeConn is one node's KV surface as a smart client sees it: every
// vBucket-routed operation, addressed by (vbID, op.Key). Two
// implementations exist — the in-process loopback, which hands the op
// to the owning *Node's vBucket (vbucket.Do, the single executor), and
// the transport layer's TCP connection that encodes the op as a
// memcproto frame by its table row (the server decodes it and hands it
// to the same loopback). The client neither knows nor cares which it
// got; that indifference is the seam the multi-process cluster hangs on.
type NodeConn interface {
	Do(ctx context.Context, vbID int, op Op) (Result, error)
}

// Router is how a smart client resolves "who owns this key and how do
// I talk to them": the cached cluster map plus a connection per node.
// The loopback router reads the bucket's live map and hands out
// in-process conns; the transport router caches the map it last saw on
// the wire (every response carries the server's map epoch) and hands
// out pooled TCP conns.
type Router interface {
	// BucketMap returns the router's current view of the cluster map.
	BucketMap() (*cmap.Map, error)
	// Conn returns the connection for the named node.
	Conn(node cmap.NodeID) (NodeConn, error)
}

// NewClient builds a smart client over an arbitrary Router — the
// entry point the transport layer (and tests) use to drive the full
// client surface over TCP. In-process callers keep using
// Cluster.OpenBucket, which wires the loopback router.
func NewClient(r Router, bucket string) *Client {
	return &Client{
		router: r,
		bucket: bucket,
		clock:  func() int64 { return time.Now().Unix() },
	}
}
