package transport

import (
	"context"
	"sort"

	"couchgo/internal/memcproto"
)

// Federation is a ClusterNode's view of its peers for observability
// fan-out: the REST layer asks it who the members are and fetches a
// named domain ("metrics", "health", "events", "trace", ...) from any
// of them over the KV wire. Fetches reuse the node's pooled
// multiplexed connections, so a metrics poll never pays a dial after
// the first request to a peer.
type Federation struct{ node *ClusterNode }

// Federation returns the node's observability fan-out handle.
func (n *ClusterNode) Federation() *Federation { return &Federation{n} }

// Self is this node's process-level identity (its advertised KV
// address), the label its own series carry in federated views.
func (f *Federation) Self() string { return f.node.self }

// Nodes lists the cluster's member addresses (self included), sorted
// for stable output; before the cluster has formed, self alone.
func (f *Federation) Nodes() []string {
	nodes := []string{f.node.self}
	for _, id := range f.node.currentMap().Nodes {
		if string(id) != f.node.self {
			nodes = append(nodes, string(id))
		}
	}
	sort.Strings(nodes)
	return nodes
}

// Fetch retrieves one observability domain from a peer as a single
// OpFederate request/response exchange. The domain rides the key, the
// request payload (may be nil) rides the value, and the peer's JSON
// reply comes back verbatim.
func (f *Federation) Fetch(ctx context.Context, node, domain string, payload []byte) ([]byte, error) {
	conn, err := f.node.pool.Get(node)
	if err != nil {
		return nil, err
	}
	resp, err := conn.Roundtrip(ctx, &memcproto.Frame{
		Magic:  memcproto.MagicReq,
		Opcode: memcproto.OpFederate,
		Key:    []byte(domain),
		Value:  payload,
	})
	if err != nil {
		return nil, err
	}
	if resp.Status != memcproto.StatusOK {
		return nil, errOf(resp.Status, resp.Value)
	}
	return resp.Value, nil
}
