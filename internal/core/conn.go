package core

import (
	"context"
	"errors"
	"time"

	"couchgo/internal/cache"
	"couchgo/internal/cmap"
	"couchgo/internal/memcproto"
)

// ErrNodeUnreachable marks transient transport failures (dial refused,
// connection reset, pool drained). The client's route loop retries them
// with the same capped backoff it uses for a stale map, because they
// mean the same thing operationally: the topology the client believes
// in and the one that exists have diverged for a moment.
var ErrNodeUnreachable = errors.New("core: node unreachable")

// Op is one KV request as a plain value: the opcode plus the union of
// every op's arguments. Which fields an op reads is fixed by the
// extras layout of its memcproto.OpSpec row; the rest stay zero. It
// crosses NodeConn.Do by value, so a caller's Op stays on its stack on
// the loopback path (TestLoopbackDoGetZeroAlloc).
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

// NodeConn is one node's KV surface as a smart client sees it: every
// vBucket-routed operation, addressed by (vbID, op.Key). Two
// implementations exist — the in-process loopback, the single executor
// that calls into the owning *Node's vBucket, and the transport
// layer's TCP connection that encodes the op as a memcproto frame by
// its table row (the server decodes it and hands it to the same
// executor). The client neither knows nor cares which it got; that
// indifference is the seam the multi-process cluster hangs on.
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
