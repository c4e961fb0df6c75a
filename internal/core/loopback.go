package core

import (
	"context"
	"fmt"

	"couchgo/internal/cmap"
	"couchgo/internal/vbucket"
)

// routeTable is a map with what the router needs of it: by vBucket, the
// active node and that node's copy (nil: not in this process, or no
// copy yet) or, in another process, the conn to it. It is immutable.
// install publishes one with each map, and createVB and demoteAndDrop
// one with the entry they changed (placed), so no op ever builds one.
type routeTable struct {
	m      *cmap.Map
	routes []route
}

type route struct {
	id   cmap.NodeID
	node *Node
	vb   *vbucket.VBucket
	conn NodeConn
}

// Route is the cluster's Router: a key resolves with one index into the
// route table published with its bucket's map, to the active copy
// itself or to the conn of the process that holds it.
func (b *bucketTopology) Route(key string) (h Hop, err error) {
	t := b.t.Load()
	if t == nil {
		return h, ErrNoSuchBucket
	}
	return t.hop(cmap.VBucketID(key, len(t.routes)))
}

// hop is vb's route. Its errors are the ones a stale table gives, each
// retried by the client: a node out of reach or down, or a copy not
// there yet. vbucket.Do, here or in the conn's process, refuses the
// rest (a replica not yet promoted, a source sealed by a move).
func (t *routeTable) hop(vb int) (h Hop, err error) {
	r := &t.routes[vb]
	h.Node, h.VB, h.Copy, h.Conn = r.id, vb, r.vb, r.conn
	switch {
	case r.id == "", r.conn != nil: // lost, which the caller says, or in another process
	case r.node == nil:
		err = ErrNodeUnreachable
	case !r.node.Alive():
		err = ErrNodeDown
	case r.vb == nil:
		err = vbucket.ErrNotMyVBucket
	}
	return h, err
}

// active is vb's active copy, as an op would find it.
func (c *Cluster) active(bucket string, vb int) (*vbucket.VBucket, error) {
	b, ok := c.topo.buckets.get(bucket)
	if !ok || b.t.Load() == nil {
		return nil, ErrNoSuchBucket
	}
	h, err := b.t.Load().hop(vb)
	if err == nil && h.Copy == nil {
		err = fmt.Errorf("core: vb %d has no active copy", vb)
	}
	return h.Copy, err
}

// routeTableLocked builds m's table; the caller holds d.mu.
func (d *Decider) routeTableLocked(bucket string, m *cmap.Map) *routeTable {
	t := &routeTable{m: m, routes: make([]route, m.NumVBuckets)}
	for vb := range t.routes {
		r := &t.routes[vb]
		r.id = m.Active(vb)
		if r.node, _ = d.nodes.get(r.id); r.node != nil {
			if nb, ok := r.node.buckets.get(bucket); ok {
				r.vb = nb.vb(vb)
			}
		} else if d.reach != nil {
			r.conn = d.reach(r.id)
		}
	}
	return t
}

// placed republishes the bucket's route table with v as node's copy of
// vb (nil: dropped), if the current map makes node vb's active.
func (d *Decider) placed(bucket string, node cmap.NodeID, vb int, v *vbucket.VBucket) {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, ok := d.buckets.get(bucket)
	if !ok {
		return
	}
	if t := b.t.Load(); t != nil && t.m.Active(vb) == node && t.routes[vb].vb != v {
		next := &routeTable{m: t.m, routes: append([]route(nil), t.routes...)}
		next.routes[vb].vb = v
		b.t.Store(next)
	}
}

// loopbackConn is where the wire server ends up after decoding a request
// frame: it finds the node's copy of the vBucket and hands the op to
// vbucket.Do, so an op is executed (and a durable one waited for) in the
// serving process before it is acknowledged.
type loopbackConn struct {
	node   *Node
	bucket string
}

func (lc *loopbackConn) Do(ctx context.Context, vbID int, op Op) (res Result, err error) {
	vb, err := lc.node.kvVB(lc.bucket, vbID)
	if err != nil {
		return res, err
	}
	return vb.Do(ctx, &op)
}
