package core

import "couchgo/internal/cmap"

// Windows into unexported state for the external tests of this
// directory (reconcile_test.go drives the reconciler through both
// replica sources, and the socket one lives in a package that imports
// this one).

// LoopbackReplicaSource is the ReplicaSource the in-process cluster
// reconciles with.
func (c *Cluster) LoopbackReplicaSource(bucket string) ReplicaSource {
	return loopbackSource{c, bucket}
}

// LinkOf identifies node's inbound replica link for vb: an opaque
// value that changes whenever the link is replaced (nil when there is
// none), the node it pulls from, and whether its goroutine still runs.
func (c *Cluster) LinkOf(node cmap.NodeID, bucket string, vb int) (id any, source cmap.NodeID, alive bool) {
	nb, err := c.nodeBucket(node, bucket)
	if err != nil {
		return nil, "", false
	}
	nb.mu.Lock()
	l := nb.links[vb]
	nb.mu.Unlock()
	if l == nil {
		return nil, "", false
	}
	return l, l.source, l.alive()
}

// DetachViews detaches vb from node's view engine behind the
// reconciler's back, so a test can tell whether a later reconcile
// re-attached consumers.
func (c *Cluster) DetachViews(node cmap.NodeID, bucket string, vb int) error {
	nb, err := c.nodeBucket(node, bucket)
	if err != nil {
		return err
	}
	nb.detachConsumers(vb)
	return nil
}
