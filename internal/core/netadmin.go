package core

import (
	"couchgo/internal/cmap"
	"couchgo/internal/vbucket"
)

// This file is what the transport layer reads and installs on the
// process-local cluster: the bucket's map, its configured replica
// count, a node's vBucket copies (for DCP serving), and the loopback
// conn. Copy state itself changes only through ReconcileLocal
// (reconcile.go).

// BucketMap returns the bucket's current cluster map — the transport
// server stamps its Rev (the epoch) on every response and ships it
// whole in fat not-my-vbucket replies.
func (c *Cluster) BucketMap(bucket string) (*cmap.Map, error) {
	b, err := c.bucket(bucket)
	if err != nil {
		return nil, err
	}
	return b.Map(), nil
}

// BucketReplicas reports the replica count the bucket was created
// with. The live map's NumReplicas clamps to nodes-1, so a 1-node
// bootstrap map says 0 even when the bucket wants replicas; a
// coordinator minting a multi-process map needs the configured value.
func (c *Cluster) BucketReplicas(bucket string) (int, error) {
	b, err := c.bucket(bucket)
	if err != nil {
		return 0, err
	}
	return b.opts.NumReplicas, nil
}

// NodeVB returns the node's copy of a vBucket in any state, or nil
// with no error when the node holds no copy. The transport server's
// DCP stream, failover-log, and ack dispatch use it.
func (c *Cluster) NodeVB(node cmap.NodeID, bucket string, vbID int) (*vbucket.VBucket, error) {
	n, err := c.Node(node)
	if err != nil {
		return nil, err
	}
	nb, err := n.bucket(bucket)
	if err != nil {
		return nil, err
	}
	return nb.vb(vbID), nil
}

// SetBucketMap replaces the bucket's cluster map wholesale. In a
// multi-process cluster the map is minted by the coordinator process
// and pushed to every member; the member installs it here so the local
// REST/stats surfaces and the map's Rev (the wire protocol's epoch)
// reflect the cluster-level topology rather than the local single-node
// view. It does NOT reconcile vBucket state — the member follows up
// with ReconcileLocal per vBucket.
func (c *Cluster) SetBucketMap(bucket string, m *cmap.Map) error {
	b, err := c.bucket(bucket)
	if err != nil {
		return err
	}
	b.setMap(m)
	return nil
}

// LoopbackConn returns the in-process NodeConn for one node — the
// transport server dispatches decoded frames through it so both
// transports execute the identical op path, and hybrid routers use it
// for the one node that lives in their own process.
func (c *Cluster) LoopbackConn(node cmap.NodeID, bucket string) (NodeConn, error) {
	n, err := c.Node(node)
	if err != nil {
		return nil, err
	}
	return loopbackConn{node: n, bucket: bucket}, nil
}
