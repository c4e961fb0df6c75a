package core

import (
	"context"
	"errors"

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
// I talk to them". A cluster's router (a bucket's *bucketTopology)
// indexes the route table published with the bucket's live map and
// hands out the active copy itself or another process's conn; an
// external client's router caches the map it last saw on the wire
// (every response carries the server's map epoch) and hands out conns.
type Router interface {
	// Route resolves key under the router's current map. An error with
	// a hop to a node is retried as an op's would be; one without (no
	// map to route by) ends the op.
	Route(key string) (Hop, error)
}

// Hop is where a key's op goes: the vBucket the key hashes to, the node
// the map names for its active copy ("" when the partition is lost),
// and the copy itself when it lives in this process (handed the *Op an
// interface call would move to the heap), else a conn to its node.
type Hop struct {
	Node cmap.NodeID
	VB   int
	Copy *vbucket.VBucket
	Conn NodeConn
}

// NewClient builds a smart client over an arbitrary Router — the
// external smart client's entry point, a process outside the cluster
// driving the full client surface over TCP. Callers inside a cluster's
// process use Cluster.OpenBucket, which routes by its route table.
func NewClient(r Router, bucket string) *Client {
	return &Client{
		router: r,
		bucket: bucket,
	}
}
