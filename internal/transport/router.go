package transport

import (
	"context"
	"fmt"
	"sync"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/memcproto"
)

// NetRouter implements core.Router over the wire: it caches the last
// cluster map it saw, hands out netConns from a shared pool, and
// refreshes the map when the wire tells it to — a fat not-my-vbucket
// reply installs the shipped map directly, and a response stamped
// with a newer epoch marks the cache stale so the next BucketMap
// refetches. This is the paper's smart client: topology intelligence
// rides the data path, not a separate control channel.
type NetRouter struct {
	bucket string
	pool   *Pool
	seeds  []string

	mu    sync.Mutex
	m     *cmap.Map
	stale bool

	localID   cmap.NodeID
	localConn core.NodeConn
}

var _ core.Router = (*NetRouter)(nil)

// NewRouter builds a router that bootstraps its map from the seed
// addresses.
func NewRouter(bucket string, seeds []string, pool *Pool) *NetRouter {
	if pool == nil {
		pool = NewPool()
	}
	return &NetRouter{bucket: bucket, pool: pool, seeds: seeds}
}

// SetLocal short-circuits one node to an in-process conn — a cbserver
// process routes to itself by function call and to peers by socket.
func (r *NetRouter) SetLocal(id cmap.NodeID, conn core.NodeConn) {
	r.mu.Lock()
	r.localID, r.localConn = id, conn
	r.mu.Unlock()
}

// Pool exposes the router's connection pool (the member layer shares
// it for admin traffic).
func (r *NetRouter) Pool() *Pool { return r.pool }

// BucketMap returns the cached map, refetching when empty or stale.
func (r *NetRouter) BucketMap() (*cmap.Map, error) {
	r.mu.Lock()
	m, stale := r.m, r.stale
	r.mu.Unlock()
	if m != nil && !stale {
		return m, nil
	}
	if err := r.refreshMap(); err != nil {
		if m != nil {
			return m, nil // stale beats nothing; NMVB will correct us
		}
		return nil, err
	}
	r.mu.Lock()
	m = r.m
	r.mu.Unlock()
	return m, nil
}

// Conn returns the conn for a node — in-process for the local node,
// pooled TCP otherwise. Node IDs are KV addresses by convention.
func (r *NetRouter) Conn(node cmap.NodeID) (core.NodeConn, error) {
	r.mu.Lock()
	localID, localConn := r.localID, r.localConn
	r.mu.Unlock()
	if localConn != nil && node == localID {
		return localConn, nil
	}
	return netConn{addr: string(node), pool: r.pool, sink: r}, nil
}

// observeEpoch marks the cached map stale when the wire advertises a
// newer revision.
func (r *NetRouter) observeEpoch(epoch int64) {
	r.mu.Lock()
	if r.m != nil && epoch > r.m.Rev {
		r.stale = true
	}
	r.mu.Unlock()
}

// installMap adopts a map if it is newer than the cache (fat NMVB
// replies and seed pushes land here).
func (r *NetRouter) installMap(m *cmap.Map) {
	r.mu.Lock()
	if r.m == nil || m.Rev >= r.m.Rev {
		r.m = m
		r.stale = false
	}
	r.mu.Unlock()
}

// InstallMap is installMap for external callers (a cluster node hands
// every map it applies to its serving router).
func (r *NetRouter) InstallMap(m *cmap.Map) { r.installMap(m) }

// Invalidate forces the next BucketMap to refetch.
func (r *NetRouter) Invalidate() {
	r.mu.Lock()
	r.stale = true
	r.mu.Unlock()
}

// refreshMap asks the seeds and every node of the last-known map for
// the current cluster map, adopting the first success.
func (r *NetRouter) refreshMap() error {
	r.mu.Lock()
	candidates := append([]string(nil), r.seeds...)
	if r.m != nil {
		for _, n := range r.m.Nodes {
			candidates = append(candidates, string(n))
		}
	}
	r.mu.Unlock()

	var lastErr error = fmt.Errorf("transport: no map source configured: %w", core.ErrNodeUnreachable)
	seen := map[string]bool{}
	for _, addr := range candidates {
		if seen[addr] {
			continue
		}
		seen[addr] = true
		m, err := fetchMap(r.pool, addr, r.bucket)
		if err != nil {
			lastErr = err
			continue
		}
		r.installMap(m)
		return nil
	}
	return lastErr
}

// fetchMap pulls the cluster map from one node.
func fetchMap(pool *Pool, addr, bucket string) (*cmap.Map, error) {
	conn, err := pool.Get(addr)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := conn.Roundtrip(ctx, &memcproto.Frame{
		Magic:  memcproto.MagicReq,
		Opcode: memcproto.OpGetClusterMap,
		Key:    []byte(bucket),
	})
	if err != nil {
		return nil, err
	}
	if resp.Status != memcproto.StatusOK {
		return nil, errOf(resp.Status, resp.Value)
	}
	return decodeMap(resp.Value)
}
