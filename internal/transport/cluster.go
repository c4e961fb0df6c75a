package transport

import (
	"context"
	"encoding/json"
	"net"
	"strconv"
	"sync"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/dcp"
	"couchgo/internal/events"
	"couchgo/internal/memcproto"
)

// This file turns N independent cbserver processes into one cluster.
// Each process runs a local core.Cluster of one node plus a Server, and
// the node goes by the process's advertised KV address everywhere: in
// its own cluster, in every map, to the decider and to its peers.
// Topology is decided in one place, the seed process's core.Decider:
// the seed feeds it the members' heartbeats, asks it for the balanced
// map once the expected cluster size is reached, and its cluster's
// heartbeat loop fails a silent member over. Every map the decider
// mints leaves through publish — applied here by core's one applier,
// pushed to the peers as SET_CLUSTER_MAP — and a joiner hands what it
// is pushed (or fetches) to the same applier, so every process, and
// every smart client via the epoch in response headers, converges on
// it. Deliberate limitations, documented in DESIGN.md §9.4: membership
// is fixed at formation (no incremental rebalance of a live process
// cluster) and the seed itself is not failover-able.

// NodeOptions wire one cbserver process into a networked cluster.
type NodeOptions struct {
	// Cluster is the process-local cluster, with Bucket already created
	// and no node: StartNode adds the process's one node. Its
	// Config.HeartbeatInterval paces member heartbeats and push retries.
	Cluster *core.Cluster
	Bucket  string
	// KVAddr is the wire-protocol listen address (port 0 for
	// ephemeral).
	KVAddr string
	// Advertise overrides the address peers dial (defaults to the
	// bound address, with unspecified hosts rewritten to 127.0.0.1).
	Advertise string
	// Join is the seed's KV address; empty makes this process the
	// seed.
	Join string
	// ClusterSize is the member count (including the seed) the seed
	// waits for before forming the cluster. Seed only.
	ClusterSize int
	// Observe serves cluster-observability fetches (metrics, health,
	// events, traces) arriving over the wire as OpFederate requests
	// from peer nodes. Nil disables federation on this node.
	Observe func(domain string, payload []byte) ([]byte, error)
}

// ClusterNode is one process's networked-cluster runtime.
type ClusterNode struct {
	opts NodeOptions
	srv  *Server
	pool *Pool
	// self is the process's one node: its ID, in its cluster and in
	// every map, is the advertised KV address.
	self string

	// closed fires on Close: the heartbeat loop and in-flight push
	// retries bail instead of sleeping on against a cluster that is gone.
	closed    chan struct{}
	closeOnce sync.Once
}

// StartNode binds the KV listener, adds the process's node under the
// address it advertises, points the cluster's decider at the wire, and
// starts serving: a seed admits heartbeats, everyone else sends them.
// Until the cluster forms the node holds no copy, so its KV ops answer
// NOT_MY_VBUCKET.
func StartNode(opts NodeOptions) (*ClusterNode, error) {
	if opts.ClusterSize <= 0 {
		opts.ClusterSize = 1
	}
	ln, err := net.Listen("tcp", opts.KVAddr)
	if err != nil {
		return nil, err
	}
	self := opts.Advertise
	if self == "" {
		self = advertiseAddr(ln.Addr())
	}
	if _, err := opts.Cluster.AddNode(cmap.NodeID(self), cmap.AllServices); err != nil {
		ln.Close()
		return nil, err
	}

	n := &ClusterNode{opts: opts, pool: NewPool(), self: self, closed: make(chan struct{})}
	cfg := ServerConfig{
		Cluster:  opts.Cluster,
		Node:     cmap.NodeID(self),
		Bucket:   opts.Bucket,
		OnSetMap: n.apply,
		Stats: func() map[string]any {
			return map[string]any{"node": self, "map_rev": n.currentMap().Rev}
		},
		Observe: opts.Observe,
	}
	// From here the maps the process's decider mints (a seed's, in
	// practice) leave through the wire, and its route tables reach a
	// peer's node over a conn from the one pool.
	opts.Cluster.Decider().PublishVia(n.publish, func(id cmap.NodeID) core.NodeConn {
		return netConn{addr: string(id), pool: n.pool, sink: n}
	})
	if opts.Join == "" {
		cfg.OnHeartbeat = n.admit
		// The seed is its own first member, before any heartbeat can
		// arrive; a solo "cluster" forms right here. AddNode may have
		// heard it already, so this need not be first contact.
		members, _ := opts.Cluster.Decider().Heard(cmap.NodeID(self))
		n.form(members)
	}

	n.srv = Serve(ln, cfg)
	if opts.Join != "" {
		go n.joinLoop()
	}
	return n, nil
}

// KVAddr is the address peers and clients dial.
func (n *ClusterNode) KVAddr() string { return n.self }

// Close stops serving and ends the process's part in the cluster.
func (n *ClusterNode) Close() {
	n.closeOnce.Do(func() { close(n.closed) })
	n.opts.Cluster.Leave()
	n.srv.Close()
	n.pool.Close()
}

// currentMap is the process's one map of the bucket: one that maps no
// copy until the cluster forms, then the last one applied.
func (n *ClusterNode) currentMap() *cmap.Map {
	m, _ := n.opts.Cluster.BucketMap(n.opts.Bucket)
	return m
}

// advertiseAddr rewrites a bound listen address into one peers can
// dial.
func advertiseAddr(a net.Addr) string {
	ta, ok := a.(*net.TCPAddr)
	if !ok {
		return a.String()
	}
	ip := ta.IP
	if ip == nil || ip.IsUnspecified() {
		return net.JoinHostPort("127.0.0.1", strconv.Itoa(ta.Port))
	}
	return net.JoinHostPort(ip.String(), strconv.Itoa(ta.Port))
}

// socketSource is core's replica-link seam over the wire: a process
// cluster's node IDs are KV addresses, so the source of a vBucket on
// node X is a RemoteProducer dialing X, and acks ride the stream's own
// connection back.
type socketSource struct{}

func (socketSource) Source(node cmap.NodeID, vb int) (dcp.StreamSource, error) {
	return NewRemoteProducer(string(node), vb), nil
}

func (socketSource) Ack(_ dcp.StreamSource, stream dcp.MutationStream, _ string, seqno uint64) {
	stream.(*RemoteStream).Ack(seqno)
}

// apply hands a map — pushed by the seed, fetched from it, riding a
// peer's fat not-my-vbucket reply, or minted here — to core's applier.
func (n *ClusterNode) apply(bucket string, m *cmap.Map) error {
	return n.opts.Cluster.ApplyMap(bucket, m, socketSource{})
}

// installMap and observeEpoch make the process its conns' map sink: a
// fat reply's map goes to the applier (its op routes again either way);
// an epoch alone needs nothing, as a joiner's heartbeat fetches maps.
func (n *ClusterNode) installMap(m *cmap.Map) { n.apply(n.opts.Bucket, m) }
func (n *ClusterNode) observeEpoch(int64)     {}

// ---------------------------------------------------------------------------
// Seed: the decider's inputs and its publish seam

// publish delivers a map the decider minted: applied here, then pushed
// to every live peer over the wire, with retries.
func (n *ClusterNode) publish(bucket string, m *cmap.Map) error {
	value, err := json.Marshal(m)
	if err != nil {
		return err
	}
	err = n.apply(bucket, m)
	for _, peer := range n.opts.Cluster.Decider().Live() {
		if string(peer) != n.self {
			go n.pushMap(string(peer), bucket, value)
		}
	}
	return err
}

func (n *ClusterNode) pushMap(addr, bucket string, value []byte) {
	for attempt := 0; attempt < 5; attempt++ {
		conn, err := n.pool.Get(addr)
		if err == nil {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			resp, rerr := conn.Roundtrip(ctx, &memcproto.Frame{
				Magic:  memcproto.MagicReq,
				Opcode: memcproto.OpSetClusterMap,
				Key:    []byte(bucket),
				Value:  value,
			})
			cancel()
			if rerr == nil && resp.Status == memcproto.StatusOK {
				return
			}
		}
		if !sleepOr(n.opts.Cluster.HeartbeatInterval(), n.closed) {
			return
		}
	}
	n.journal(events.SevWarn, "cluster map push failed", map[string]string{"member": addr})
}

func (n *ClusterNode) journal(sev events.Severity, msg string, fields map[string]string) {
	e := events.New(events.Topology, sev, msg)
	e.Node, e.Bucket = n.self, n.opts.Bucket
	e.Fields = fields
	events.Default.Publish(e)
}

// admit records a heartbeat with the decider. First contact journals
// the member and starts grading its silence; the member that completes
// the expected cluster size forms the cluster. One who joins after that
// is admitted as a heartbeating member but not rebalanced in
// (DESIGN.md §9.4).
func (n *ClusterNode) admit(addr string) {
	members, joined := n.opts.Cluster.Decider().Heard(cmap.NodeID(addr))
	if joined {
		n.journal(events.SevInfo, "member joined cluster", map[string]string{"member": addr})
		n.form(members)
	}
}

// form mints the cluster's first map when members is the expected
// size: the decider's balanced map over everyone, one Rev above the map
// the bucket was created with.
func (n *ClusterNode) form(members int) {
	if members != n.opts.ClusterSize {
		return
	}
	d := n.opts.Cluster.Decider()
	if err := d.Rebalance(d.Live(), nil); err != nil {
		n.journal(events.SevWarn, "local map apply failed", map[string]string{"error": err.Error()})
	}
	n.journal(events.SevInfo, "cluster map minted", map[string]string{
		"rev":   strconv.FormatInt(n.currentMap().Rev, 10),
		"nodes": strconv.Itoa(members),
	})
}

// ---------------------------------------------------------------------------
// Joiner

// joinBackoffMin is the first retry delay of a joiner the seed has not
// answered yet (typically: it dialled before the seed listened); it
// doubles up to the heartbeat interval.
const joinBackoffMin = 10 * time.Millisecond

// joinLoop heartbeats the seed from the first tick, one interval apart
// once the seed has answered, and applies the map whenever the seed's
// epoch outruns ours; the formed map itself usually arrives pushed.
func (n *ClusterNode) joinLoop() {
	interval := n.opts.Cluster.HeartbeatInterval()
	for wait := min(joinBackoffMin, interval); ; wait = min(2*wait, interval) {
		m, err := n.heartbeat()
		if err == nil {
			wait = interval
		}
		if m != nil {
			n.apply(n.opts.Bucket, m)
		}
		if !sleepOr(wait, n.closed) {
			return
		}
	}
}

// heartbeat sends one heartbeat and returns a newer map when the seed
// has one: the reply carries only the epoch, so a newer one is fetched.
func (n *ClusterNode) heartbeat() (*cmap.Map, error) {
	seed := n.opts.Join
	conn, err := n.pool.Get(seed)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	resp, err := conn.Roundtrip(ctx, &memcproto.Frame{
		Magic:  memcproto.MagicReq,
		Opcode: memcproto.OpHeartbeat,
		Key:    []byte(n.self),
	})
	if err != nil {
		return nil, err
	}
	if resp.Status != memcproto.StatusOK {
		return nil, errOf(resp.Status, resp.Value)
	}
	if epoch, ok := memcproto.Epoch(resp.Extras); ok && epoch > n.currentMap().Rev {
		return fetchMap(n.pool, seed, n.opts.Bucket)
	}
	return nil, nil
}

// sleepOr sleeps d unless stop fires first; returns false when
// stopped.
func sleepOr(d time.Duration, stop chan struct{}) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-stop:
		return false
	}
}
