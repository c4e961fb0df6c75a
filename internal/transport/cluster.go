package transport

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/dcp"
	"couchgo/internal/events"
	"couchgo/internal/health"
	"couchgo/internal/memcproto"
)

// This file turns N independent cbserver processes into one cluster.
// Each process runs a local single-node core.Cluster plus a Server, and
// is known to the others by its advertised KV address: the node IDs of
// the process-level map are addresses. Topology is decided in one
// place, the seed process's core.Decider: the seed feeds it the
// members' joins and heartbeats, asks it for the balanced map once the
// expected cluster size is reached, and has it fail over a member the
// watchdog holds critical. Every map the decider mints leaves through
// publish — applied here by core's one applier, pushed to the peers as
// SET_CLUSTER_MAP — and a joiner hands what it is pushed (or fetches)
// to the same applier, so every process, and every smart client via
// the epoch in response headers, converges on it. Deliberate
// limitations, documented in DESIGN.md §9.4: membership is fixed at
// formation (no incremental rebalance of a live process cluster) and
// the seed itself is not failover-able.

// NodeOptions wire one cbserver process into a networked cluster.
type NodeOptions struct {
	// Cluster is the process-local cluster: one node, with Bucket
	// already created.
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
	// HeartbeatInterval paces member heartbeats (default 500ms).
	HeartbeatInterval time.Duration
	// FailoverAfter is heartbeat silence before a mapped member's health
	// check turns critical (default 5 intervals).
	FailoverAfter time.Duration
	// Watchdog is the process's one health watchdog, started and
	// stopped by the caller. The seed registers a member:<addr> check
	// on it for every member and arms it to fail over one it holds
	// critical; nil leaves failure detection off.
	Watchdog *health.Watchdog
	// Observe serves cluster-observability fetches (metrics, health,
	// events, traces) arriving over the wire as OpFederate requests
	// from peer nodes. Nil disables federation on this node.
	Observe func(domain string, payload []byte) ([]byte, error)
}

// ClusterNode is one process's networked-cluster runtime.
type ClusterNode struct {
	opts   NodeOptions
	srv    *Server
	router *NetRouter
	pool   *Pool
	// self is the process's identity in the cluster, its advertised KV
	// address; local is its one node's ID inside opts.Cluster.
	self  string
	local cmap.NodeID

	// closed fires on Close: the join/heartbeat loop and in-flight push
	// retries bail instead of sleeping on against a cluster that is gone.
	closed    chan struct{}
	closeOnce sync.Once
	// formed is set on the seed once the cluster's first map is out.
	formed atomic.Bool
}

// StartNode binds the KV listener, points the cluster's decider at
// the wire, and starts serving (a seed) or joining (everyone else).
func StartNode(opts NodeOptions) (*ClusterNode, error) {
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = 500 * time.Millisecond
	}
	if opts.FailoverAfter <= 0 {
		opts.FailoverAfter = 5 * opts.HeartbeatInterval
	}
	if opts.ClusterSize <= 0 {
		opts.ClusterSize = 1
	}
	locals := opts.Cluster.Nodes()
	if len(locals) != 1 {
		return nil, fmt.Errorf("transport: a member process holds one local node, its cluster has %d", len(locals))
	}
	if opts.Cluster.FailoverTimeout() > 0 {
		return nil, fmt.Errorf("transport: a member process's cluster must leave Config.FailoverTimeout zero: its peers are other processes, graded by the seed's watchdog")
	}
	local := locals[0].ID()
	lc, err := opts.Cluster.LoopbackConn(local, opts.Bucket)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", opts.KVAddr)
	if err != nil {
		return nil, err
	}
	self := opts.Advertise
	if self == "" {
		self = advertiseAddr(ln.Addr())
	}

	pool := NewPool()
	seeds := []string{self}
	if opts.Join != "" {
		seeds = []string{opts.Join, self}
	}
	router := NewRouter(opts.Bucket, seeds, pool)
	router.SetLocal(cmap.NodeID(self), lc)

	n := &ClusterNode{opts: opts, router: router, pool: pool, self: self, local: local, closed: make(chan struct{})}
	cfg := ServerConfig{
		Cluster:  opts.Cluster,
		Node:     local,
		Bucket:   opts.Bucket,
		OnSetMap: n.apply,
		Stats: func() map[string]any {
			return map[string]any{"node": self, "map_rev": n.currentMap().Rev}
		},
		Observe: opts.Observe,
	}
	// From here the maps the process's decider mints (a seed's, in
	// practice) leave through the wire.
	opts.Cluster.Decider().PublishVia(n.publish)
	if opts.Join == "" {
		cfg.OnJoin = n.onJoin
		cfg.OnHeartbeat = n.admit
		if opts.Watchdog != nil {
			health.AutoFailover(opts.Watchdog, "member:", n.failover)
		}
		// The seed is its own first member, before any join can arrive; a
		// solo "cluster" forms right here.
		n.admit(self)
	}

	n.srv = Serve(ln, cfg)
	if opts.Join != "" {
		go n.joinLoop()
	}
	return n, nil
}

// KVAddr is the address peers and clients dial.
func (n *ClusterNode) KVAddr() string { return n.self }

// Router is the process's hybrid smart-client router: loopback to the
// local node, sockets to peers. The REST layer serves documents
// through a client built on it.
func (n *ClusterNode) Router() *NetRouter { return n.router }

// Close stops serving and ends the process's part in the cluster.
func (n *ClusterNode) Close() {
	n.closeOnce.Do(func() { close(n.closed) })
	n.opts.Cluster.Leave()
	n.srv.Close()
	n.pool.Close()
}

// currentMap is the process's one map of the bucket: the local
// bootstrap map until the cluster forms, then the last one applied.
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

// apply hands a map — pushed by the seed, fetched from it, or minted
// here — to core's applier, then, for the bucket this node serves, to
// the process's own router.
func (n *ClusterNode) apply(bucket string, m *cmap.Map) error {
	err := n.opts.Cluster.ApplyMap(bucket, m, cmap.NodeID(n.self), socketSource{})
	if bucket == n.opts.Bucket {
		n.router.InstallMap(m)
	}
	return err
}

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
		if !sleepOr(n.opts.HeartbeatInterval, n.closed) {
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

// admit records a join or heartbeat with the decider. First contact
// journals the member and starts grading its silence; the member that
// completes the expected cluster size forms the cluster — the
// decider's balanced map over everyone, minted above every process's
// bootstrap map. One who joins after that is admitted as a
// heartbeating member but not rebalanced in (DESIGN.md §9.4).
func (n *ClusterNode) admit(addr string) {
	d := n.opts.Cluster.Decider()
	members, joined := d.Heard(cmap.NodeID(addr))
	if !joined {
		return
	}
	if addr != n.self {
		n.journal(events.SevInfo, "member joined cluster", map[string]string{"member": addr})
		if n.opts.Watchdog != nil {
			n.opts.Watchdog.Register("member:"+addr, n.memberCheck(cmap.NodeID(addr)))
		}
	}
	if members == n.opts.ClusterSize {
		if err := d.Rebalance(d.Live(), nil); err != nil {
			n.journal(events.SevWarn, "local map apply failed", map[string]string{"error": err.Error()})
		}
		n.formed.Store(true)
		n.journal(events.SevInfo, "cluster map minted", map[string]string{
			"rev":   strconv.FormatInt(n.currentMap().Rev, 10),
			"nodes": strconv.Itoa(members),
		})
	}
}

// onJoin admits a member and returns the cluster's map, nil until the
// cluster has formed.
func (n *ClusterNode) onJoin(addr string) (*cmap.Map, error) {
	n.admit(addr)
	if !n.formed.Load() {
		return nil, nil
	}
	return n.currentMap(), nil
}

// memberCheck grades one member by the decider's rule: silence past
// FailoverAfter on a member a map still names is critical, and the
// watchdog's RaiseAfter hysteresis holds it there for consecutive ticks
// (of the process's -health-interval, on a cbserver) before the
// transition fires the failover. A member no map names —
// the cluster has not formed, it joined late, or it was failed over —
// is nobody's emergency.
func (n *ClusterNode) memberCheck(id cmap.NodeID) health.CheckFunc {
	return func() (health.State, string) {
		age, mapped := n.opts.Cluster.Decider().Silence(id)
		age = age.Round(time.Millisecond)
		switch {
		case !mapped:
			return health.OK, "not mapped (failed over, or never part of the map)"
		case age > n.opts.FailoverAfter:
			return health.Critical, fmt.Sprintf("no heartbeat for %v", age)
		case age > n.opts.FailoverAfter/2:
			return health.Warn, fmt.Sprintf("heartbeat lagging (%v)", age)
		}
		return health.OK, "heartbeating"
	}
}

// failover is what the armed watchdog calls for a member it holds
// critical: the decider scrubs it from every chain and the successor
// map goes out through publish.
func (n *ClusterNode) failover(id cmap.NodeID) error {
	d := n.opts.Cluster.Decider()
	if _, mapped := d.Silence(id); !mapped {
		return nil
	}
	n.pool.Drop(string(id))
	n.journal(events.SevWarn, "auto-failover: member failed over", map[string]string{"member": string(id)})
	return d.Failover(id)
}

// ---------------------------------------------------------------------------
// Joiner

// joinBackoffMin is the first retry delay of a joiner the seed has not
// admitted yet (typically: it dialled before the seed listened); it
// doubles up to the heartbeat interval.
const joinBackoffMin = 10 * time.Millisecond

// joinLoop joins the seed until admitted with a map, then heartbeats,
// refetching the map whenever the seed's epoch outruns ours.
func (n *ClusterNode) joinLoop() {
	interval := n.opts.HeartbeatInterval
	for wait := joinBackoffMin; ; wait *= 2 {
		m, err := n.exchange(memcproto.OpJoin)
		if err == nil && m != nil {
			n.apply(n.opts.Bucket, m)
			break
		}
		if !sleepOr(min(wait, interval), n.closed) {
			return
		}
	}
	for sleepOr(interval, n.closed) {
		m, err := n.exchange(memcproto.OpHeartbeat)
		if err == nil && m != nil {
			n.apply(n.opts.Bucket, m)
		}
	}
}

// exchange sends one join/heartbeat and returns a newer map when the
// seed has one.
func (n *ClusterNode) exchange(opcode memcproto.Opcode) (*cmap.Map, error) {
	seed := n.opts.Join
	conn, err := n.pool.Get(seed)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	resp, err := conn.Roundtrip(ctx, &memcproto.Frame{
		Magic:  memcproto.MagicReq,
		Opcode: opcode,
		Key:    []byte(n.self),
	})
	if err != nil {
		return nil, err
	}
	if resp.Status != memcproto.StatusOK {
		return nil, errOf(resp.Status, resp.Value)
	}
	if opcode == memcproto.OpJoin && len(resp.Value) > 0 {
		return decodeMap(resp.Value)
	}
	// Heartbeat replies carry only the epoch; refetch on a newer one.
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
