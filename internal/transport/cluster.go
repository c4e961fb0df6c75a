package transport

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/dcp"
	"couchgo/internal/events"
	"couchgo/internal/health"
	"couchgo/internal/memcproto"
)

// This file turns N independent cbserver processes into one cluster.
// Each process runs a local single-node core.Cluster plus a Server; a
// Member reconciles the local node against every coordinator-pushed
// process-level map (node IDs are KV addresses), and the seed process
// additionally runs the coordinator: it admits joins, mints one
// balanced map when the expected cluster size is reached, heartbeats
// the members through its health watchdog, and fails over a member
// held critical — re-minting and re-broadcasting the map so every
// process (and every smart client, via the epoch in response headers)
// converges on the new topology. Deliberate limitation, documented in
// DESIGN.md §9: membership is fixed at formation (no incremental
// rebalance of a live process cluster) and the coordinator itself is
// not failover-able.

// NodeOptions wire one cbserver process into a networked cluster.
type NodeOptions struct {
	// Cluster is the process-local single-node cluster with Bucket
	// already created.
	Cluster *core.Cluster
	// LocalNode is the local node's ID inside Cluster (distinct from
	// its process-level identity, which is its advertised KV address).
	LocalNode cmap.NodeID
	Bucket    string
	// KVAddr is the wire-protocol listen address (port 0 for
	// ephemeral).
	KVAddr string
	// Advertise overrides the address peers dial (defaults to the
	// bound address, with unspecified hosts rewritten to 127.0.0.1).
	Advertise string
	// Join is the seed's KV address; empty makes this process the
	// coordinator seed.
	Join string
	// ClusterSize is the member count (including the seed) the
	// coordinator waits for before minting the map. Coordinator only.
	ClusterSize int
	// HeartbeatInterval paces member heartbeats and the coordinator's
	// health ticks (default 500ms).
	HeartbeatInterval time.Duration
	// FailoverAfter is heartbeat silence before a member's health
	// check turns critical (default 5 intervals).
	FailoverAfter time.Duration
	// Observe serves cluster-observability fetches (metrics, health,
	// events, traces) arriving over the wire as OpFederate requests
	// from peer nodes. Nil disables federation on this node.
	Observe func(domain string, payload []byte) ([]byte, error)
}

// ClusterNode is one process's networked-cluster runtime.
type ClusterNode struct {
	srv    *Server
	member *Member
	coord  *coordinator
	router *NetRouter
	pool   *Pool
	self   string
	closed chan struct{}
}

// StartNode binds the KV listener, wires the member (and, for the
// seed, the coordinator), and starts serving.
func StartNode(opts NodeOptions) (*ClusterNode, error) {
	if opts.HeartbeatInterval <= 0 {
		opts.HeartbeatInterval = 500 * time.Millisecond
	}
	if opts.FailoverAfter <= 0 {
		opts.FailoverAfter = 5 * opts.HeartbeatInterval
	}
	lc, err := opts.Cluster.LoopbackConn(opts.LocalNode, opts.Bucket)
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

	member := &Member{
		cluster:   opts.Cluster,
		localNode: opts.LocalNode,
		bucket:    opts.Bucket,
		self:      self,
		pool:      pool,
		router:    router,
		closed:    make(chan struct{}),
	}

	n := &ClusterNode{member: member, router: router, pool: pool, self: self, closed: member.closed}
	cfg := ServerConfig{
		Cluster:  opts.Cluster,
		Node:     opts.LocalNode,
		Bucket:   opts.Bucket,
		Map:      member.CurrentMap,
		OnSetMap: member.ApplyMap,
		Stats: func() map[string]any {
			return map[string]any{"node": self, "map_rev": member.rev()}
		},
		Observe: opts.Observe,
	}

	if opts.Join == "" {
		size := opts.ClusterSize
		if size <= 0 {
			size = 1
		}
		n.coord = newCoordinator(opts.Cluster, opts.Bucket, self, size, pool,
			opts.HeartbeatInterval, opts.FailoverAfter, member.ApplyMap)
		cfg.OnJoin = n.coord.onJoin
		cfg.OnHeartbeat = n.coord.heartbeat
	}

	n.srv = Serve(ln, cfg)
	if opts.Join == "" {
		n.coord.start()
		// A solo "cluster" forms immediately.
		n.coord.maybeMint()
	} else {
		go member.joinLoop(opts.Join, opts.HeartbeatInterval)
	}
	return n, nil
}

// KVAddr is the address peers and clients dial.
func (n *ClusterNode) KVAddr() string { return n.self }

// Router is the process's hybrid smart-client router: loopback to the
// local node, sockets to peers. The REST layer serves documents
// through a client built on it.
func (n *ClusterNode) Router() *NetRouter { return n.router }

// Close stops serving and tears down member state.
func (n *ClusterNode) Close() {
	if n.coord != nil {
		n.coord.stop()
	}
	n.member.close()
	n.srv.Close()
	n.pool.Close()
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

// ---------------------------------------------------------------------------
// Coordinator

type coordinator struct {
	cluster   *core.Cluster
	bucket    string
	self      string
	size      int
	pool      *Pool
	interval  time.Duration
	failAfter time.Duration
	apply     func(*cmap.Map) error
	wd        *health.Watchdog

	// closed fires on stop(): in-flight push retry loops bail instead
	// of sleeping out their remaining attempts against a dead cluster.
	closed   chan struct{}
	stopOnce sync.Once

	mu      sync.Mutex
	members map[string]time.Time
	m       *cmap.Map
	failed  map[string]bool
}

func newCoordinator(cluster *core.Cluster, bucket, self string, size int, pool *Pool,
	interval, failAfter time.Duration, apply func(*cmap.Map) error) *coordinator {
	co := &coordinator{
		cluster:   cluster,
		bucket:    bucket,
		self:      self,
		size:      size,
		pool:      pool,
		interval:  interval,
		failAfter: failAfter,
		apply:     apply,
		closed:    make(chan struct{}),
		members:   map[string]time.Time{self: time.Now()},
		failed:    map[string]bool{},
	}
	co.wd = health.New(health.Options{Interval: interval, Node: self})
	co.wd.OnTransition(co.onHealthTransition)
	co.registerCheck(self)
	return co
}

func (co *coordinator) start() { co.wd.Start() }

func (co *coordinator) stop() {
	co.wd.Stop()
	co.stopOnce.Do(func() { close(co.closed) })
}

// onJoin admits a member and returns the current map (nil until the
// cluster has formed).
func (co *coordinator) onJoin(addr string) (*cmap.Map, error) {
	co.mu.Lock()
	_, known := co.members[addr]
	co.members[addr] = time.Now()
	minted := co.m
	co.mu.Unlock()

	if !known {
		e := events.New(events.Topology, events.SevInfo, "member joined cluster")
		e.Node, e.Bucket = co.self, co.bucket
		e.Fields = map[string]string{"member": addr}
		events.Default.Publish(e)
		co.registerCheck(addr)
		if minted != nil {
			// Late joiner after formation: admitted as a heartbeating
			// member but not rebalanced in (documented limitation).
			return minted, nil
		}
		co.maybeMint()
		co.mu.Lock()
		minted = co.m
		co.mu.Unlock()
	}
	return minted, nil
}

func (co *coordinator) heartbeat(addr string) {
	co.mu.Lock()
	co.members[addr] = time.Now()
	co.mu.Unlock()
}

// maybeMint builds and broadcasts the process-level map once the
// expected member count is reached.
func (co *coordinator) maybeMint() {
	local, err := co.cluster.BucketMap(co.bucket)
	if err != nil {
		return
	}
	// The local bootstrap map clamps NumReplicas to its single node;
	// mint with the bucket's configured count (BuildBalanced re-clamps
	// to the real member count).
	replicas, err := co.cluster.BucketReplicas(co.bucket)
	if err != nil {
		replicas = local.NumReplicas
	}
	co.mu.Lock()
	if co.m != nil || len(co.members) < co.size {
		co.mu.Unlock()
		return
	}
	nodes := make([]cmap.NodeID, 0, len(co.members))
	for addr := range co.members {
		nodes = append(nodes, cmap.NodeID(addr))
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	// Rev starts above every process's local bootstrap map so the
	// pushed map always wins member-side staleness checks.
	m := cmap.BuildBalanced(local.Rev+1, nodes, local.NumVBuckets, replicas)
	co.m = m
	co.mu.Unlock()

	e := events.New(events.Topology, events.SevInfo, "cluster map minted")
	e.Node, e.Bucket = co.self, co.bucket
	e.Fields = map[string]string{
		"rev":   strconv.FormatInt(m.Rev, 10),
		"nodes": strconv.Itoa(len(nodes)),
	}
	events.Default.Publish(e)
	co.broadcast(m)
}

// broadcast pushes a map to every member (self by function call,
// peers over the wire with retries).
func (co *coordinator) broadcast(m *cmap.Map) {
	value, err := json.Marshal(m)
	if err != nil {
		return
	}
	if err := co.apply(m); err != nil {
		e := events.New(events.Topology, events.SevWarn, "local map apply failed")
		e.Node, e.Bucket = co.self, co.bucket
		e.Fields = map[string]string{"error": err.Error()}
		events.Default.Publish(e)
	}
	co.mu.Lock()
	peers := make([]string, 0, len(co.members))
	for addr := range co.members {
		if addr != co.self && !co.failed[addr] {
			peers = append(peers, addr)
		}
	}
	co.mu.Unlock()
	for _, addr := range peers {
		go co.pushMap(addr, value)
	}
}

func (co *coordinator) pushMap(addr string, value []byte) {
	for attempt := 0; attempt < 5; attempt++ {
		conn, err := co.pool.Get(addr)
		if err == nil {
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			resp, rerr := conn.Roundtrip(ctx, &memcproto.Frame{
				Magic:  memcproto.MagicReq,
				Opcode: memcproto.OpSetClusterMap,
				Key:    []byte(co.bucket),
				Value:  value,
			})
			cancel()
			if rerr == nil && resp.Status == memcproto.StatusOK {
				return
			}
		}
		if !sleepOr(co.interval, co.closed) {
			return
		}
	}
	e := events.New(events.Topology, events.SevWarn, "cluster map push failed")
	e.Node, e.Bucket = co.self, co.bucket
	e.Fields = map[string]string{"member": addr}
	events.Default.Publish(e)
}

// registerCheck adds a member-liveness check to the watchdog: silence
// past FailoverAfter goes critical, and the watchdog's RaiseAfter
// hysteresis means a member must be held critical for consecutive
// ticks before the transition fires the auto-failover.
func (co *coordinator) registerCheck(addr string) {
	if addr == co.self {
		return
	}
	co.wd.Register("member:"+addr, func() (health.State, string) {
		co.mu.Lock()
		last, ok := co.members[addr]
		failed := co.failed[addr]
		co.mu.Unlock()
		if failed {
			return health.Critical, "failed over"
		}
		if !ok {
			return health.OK, "not yet joined"
		}
		age := time.Since(last)
		switch {
		case age > co.failAfter:
			return health.Critical, fmt.Sprintf("no heartbeat for %v", age.Round(time.Millisecond))
		case age > co.failAfter/2:
			return health.Warn, fmt.Sprintf("heartbeat lagging (%v)", age.Round(time.Millisecond))
		}
		return health.OK, "heartbeating"
	})
}

// onHealthTransition is the auto-failover trigger: a member check
// raising to critical fails the member over and re-broadcasts the
// map.
func (co *coordinator) onHealthTransition(st health.CheckStatus) {
	if st.State != health.Critical || !strings.HasPrefix(st.Name, "member:") {
		return
	}
	co.failover(strings.TrimPrefix(st.Name, "member:"))
}

func (co *coordinator) failover(addr string) {
	co.mu.Lock()
	if co.m == nil || co.failed[addr] {
		co.mu.Unlock()
		return
	}
	in := false
	for _, n := range co.m.Nodes {
		if string(n) == addr {
			in = true
			break
		}
	}
	if !in {
		co.mu.Unlock()
		return
	}
	co.failed[addr] = true
	m := co.m.FailoverNode(cmap.NodeID(addr))
	co.m = m
	co.mu.Unlock()

	co.pool.Drop(addr)
	e := events.New(events.Topology, events.SevWarn, "auto-failover: member failed over")
	e.Node, e.Bucket = co.self, co.bucket
	e.Fields = map[string]string{
		"member": addr,
		"rev":    strconv.FormatInt(m.Rev, 10),
	}
	events.Default.Publish(e)
	co.broadcast(m)
}

// currentMap is the minted process map, nil before formation.
func (co *coordinator) currentMap() *cmap.Map {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.m
}

// ---------------------------------------------------------------------------
// Member

// Member reconciles the local node against coordinator-pushed maps:
// each vBucket copy goes through core's reconciler, with replica
// copies fed from their active's process over sockets.
type Member struct {
	cluster   *core.Cluster
	localNode cmap.NodeID
	bucket    string
	self      string
	pool      *Pool
	router    *NetRouter

	applyMu sync.Mutex // serializes reconciles

	mu        sync.Mutex
	cur       *cmap.Map
	closed    chan struct{}
	closeOnce sync.Once
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

// CurrentMap is the last applied process map (nil before formation).
func (mb *Member) CurrentMap() *cmap.Map {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.cur
}

func (mb *Member) rev() int64 {
	if m := mb.CurrentMap(); m != nil {
		return m.Rev
	}
	return 0
}

// close ends the member's part in the cluster: no further map is
// applied and the local copies' inbound replica links stop, so a
// closed member neither pulls from nor acks to its former peers.
func (mb *Member) close() {
	mb.closeOnce.Do(func() { close(mb.closed) })
	mb.applyMu.Lock()
	defer mb.applyMu.Unlock()
	mb.cluster.SeverReplication(mb.bucket) //couchvet:ignore lockblock -- applyMu reconcile serializer; core never calls back into transport
}

func (mb *Member) isClosed() bool {
	select {
	case <-mb.closed:
		return true
	default:
		return false
	}
}

// ApplyMap reconciles the local node against a pushed process map.
func (mb *Member) ApplyMap(m *cmap.Map) error {
	mb.applyMu.Lock()
	defer mb.applyMu.Unlock()
	if mb.isClosed() {
		return nil
	}

	mb.mu.Lock()
	if mb.cur != nil && m.Rev <= mb.cur.Rev {
		mb.mu.Unlock()
		return nil
	}
	mb.cur = m
	mb.mu.Unlock()

	// The local bucket map becomes the process map: REST/stats and the
	// epoch on every response now reflect cluster-level topology.
	if err := mb.cluster.SetBucketMap(mb.bucket, m); err != nil { //couchvet:ignore lockblock -- applyMu reconcile serializer; core never calls back into transport
		return err
	}
	mb.router.InstallMap(m)

	var firstErr error
	for vb := 0; vb < m.NumVBuckets; vb++ {
		err := mb.cluster.ReconcileLocal(mb.localNode, mb.bucket, m, cmap.NodeID(mb.self), vb, socketSource{}) //couchvet:ignore lockblock -- applyMu reconcile serializer; core never calls back into transport
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	e := events.New(events.Topology, events.SevInfo, "applied cluster map")
	e.Node, e.Bucket = mb.self, mb.bucket
	e.Fields = map[string]string{"rev": strconv.FormatInt(m.Rev, 10)}
	events.Default.Publish(e)
	return firstErr
}

// joinLoop joins the seed until admitted with a map, then heartbeats,
// refetching the map whenever the seed's epoch outruns ours.
func (mb *Member) joinLoop(seed string, interval time.Duration) {
	for {
		select {
		case <-mb.closed:
			return
		default:
		}
		m, err := mb.exchange(seed, memcproto.OpJoin)
		if err == nil && m != nil {
			mb.ApplyMap(m)
			break
		}
		if !sleepOr(interval, mb.closed) {
			return
		}
	}
	for {
		if !sleepOr(interval, mb.closed) {
			return
		}
		m, err := mb.exchange(seed, memcproto.OpHeartbeat)
		if err == nil && m != nil {
			mb.ApplyMap(m)
		}
	}
}

// exchange sends one join/heartbeat and returns a newer map when the
// seed has one.
func (mb *Member) exchange(seed string, opcode memcproto.Opcode) (*cmap.Map, error) {
	conn, err := mb.pool.Get(seed)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	resp, err := conn.Roundtrip(ctx, &memcproto.Frame{
		Magic:  memcproto.MagicReq,
		Opcode: opcode,
		Key:    []byte(mb.self),
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
	if epoch, ok := memcproto.Epoch(resp.Extras); ok && epoch > mb.rev() {
		return fetchMap(mb.pool, seed, mb.bucket)
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
