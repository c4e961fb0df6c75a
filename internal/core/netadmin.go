package core

import (
	"couchgo/internal/cmap"
	"couchgo/internal/vbucket"
)

// This file is what the transport layer reads from the process-local
// cluster: the bucket's map, a node's vBucket copies (for DCP
// serving), and the loopback conn. Maps arrive through ApplyMap
// (reconcile.go).

// BucketMap returns the bucket's current cluster map — the transport
// server stamps its Rev (the epoch) on every response and ships it
// whole in fat not-my-vbucket replies.
func (c *Cluster) BucketMap(bucket string) (*cmap.Map, error) {
	if m := c.topo.Map(bucket); m != nil {
		return m, nil
	}
	return nil, ErrNoSuchBucket
}

// NodeVB returns the node's copy of a vBucket in any state, or nil
// with no error when the node holds no copy. The transport server's
// DCP stream, failover-log, and ack dispatch use it.
func (c *Cluster) NodeVB(node cmap.NodeID, bucket string, vbID int) (*vbucket.VBucket, error) {
	nb, err := c.nodeBucket(node, bucket)
	if err != nil {
		return nil, err
	}
	return nb.vb(vbID), nil
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
	return n.conn(bucket), nil
}
