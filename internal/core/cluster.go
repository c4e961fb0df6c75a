package core

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"couchgo/internal/analytics"
	"couchgo/internal/cmap"
	"couchgo/internal/dcp"
	"couchgo/internal/events"
	"couchgo/internal/feed"
	"couchgo/internal/fts"
	"couchgo/internal/gsi"
	"couchgo/internal/metrics"
	"couchgo/internal/planner"
	"couchgo/internal/query"
	"couchgo/internal/vbucket"
	"couchgo/internal/views"
)

// Config tunes a cluster.
type Config struct {
	// Dir is the root directory for all node storage.
	Dir string
	// NumVBuckets defaults to cmap.NumVBuckets (1024). The paper fixes
	// this at 1024; tests and small benches may lower it.
	NumVBuckets int
	// SyncPersist fsyncs every flushed batch.
	SyncPersist bool
	// DiskDelay simulates storage device latency per flush batch.
	DiskDelay time.Duration
	// HeartbeatInterval / FailoverTimeout drive automatic failure
	// detection (§4.3.1): every interval the live nodes are heard from,
	// and Decider.FailoverSilent fails over a mapped node silent past the
	// timeout. Zero FailoverTimeout leaves failover to Failover calls. A
	// networked process's members are heard where their heartbeats
	// arrive, one per interval (transport.StartNode).
	HeartbeatInterval time.Duration
	FailoverTimeout   time.Duration
	// SlowQueryThreshold bounds N1QL latency before a statement lands
	// in the slow-query log (default 100ms).
	SlowQueryThreshold time.Duration
	// SlowQueryLogSize caps the slow-query ring buffer (default 64).
	SlowQueryLogSize int
}

// BucketOptions configure one bucket.
type BucketOptions struct {
	// NumReplicas: "a bucket can be replicated up to 3 times".
	NumReplicas int
	// MemoryQuotaBytes is the cache quota driving eviction.
	MemoryQuotaBytes int64
	// FullEviction selects §4.3.3's full-eviction mode (keys and
	// metadata evictable too) instead of the default value eviction.
	FullEviction bool
}

// bucketState is the cluster-wide state of one bucket.
type bucketState struct {
	name string
	opts BucketOptions

	// topo holds the bucket's cluster map.
	topo *Decider

	// hub is the bucket's one feed hub: every node's active copies attach
	// to it, and GSI, FTS and analytics subscribe their feeds to it.
	hub *feed.Hub

	mu sync.Mutex
	// gsiSvc is the bucket's index service (placed on index nodes per
	// MDS; a single logical service instance in-process).
	gsiSvc *gsi.Service
	// ftsEng is the bucket's full-text service instance.
	ftsEng *fts.Engine
	// analyticsEng is the bucket's analytics service instance (§6.2),
	// disabled until EnableAnalytics.
	analyticsEng *analytics.Engine
	// viewDefs records cluster-wide view definitions so nodes
	// provisioned later (rebalance) build them too.
	viewDefs map[string]views.Definition
	// viewIndexes is the catalog of CREATE INDEX ... USING VIEW
	// indexes, served to the planner alongside GSI metadata.
	viewIndexes map[string]planner.IndexInfo
}

func (b *bucketState) Map() *cmap.Map { return b.topo.Map(b.name) }

// Cluster is one process's Nodes plus the cluster manager of §4.3.1:
// membership, orchestrator election, and — through its Decider —
// failover and rebalancing. In-process it is the whole cluster; under
// transport.StartNode it is one member process of a networked one.
type Cluster struct {
	cfg Config
	// topo decides every bucket's map and holds the current one.
	topo *Decider

	mu sync.Mutex
	// nodes is read by every op (Node) with no lock; AddNode publishes a
	// member under mu.
	nodes   published[cmap.NodeID, *Node]
	buckets map[string]*bucketState
	closed  bool
	// rebalanceMu serializes topology changes.
	rebalanceMu sync.Mutex
	// applyMu serializes map applies; left, once set under it, refuses
	// them and stops the heartbeat loop (see Leave).
	applyMu sync.Mutex
	left    atomic.Bool

	stopHB chan struct{}
	hbDone chan struct{}

	// slowLog retains recent statements slower than
	// cfg.SlowQueryThreshold.
	slowLog *metrics.SlowQueryLog

	// queryEng holds the prepared plans, each good for the catalogEpoch
	// it was made under. The epoch is bumped under the lock guarding
	// each change to what clusterStore's catalog answers: a bucket
	// created (c.mu), a view-backed index added or dropped
	// (bucketState.mu), a GSI index registered, built or dropped
	// (gsi.Service.OnCatalogChange).
	queryEng     *query.Engine
	catalogEpoch atomic.Uint64
}

// NewCluster creates an empty cluster rooted at cfg.Dir.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.NumVBuckets <= 0 {
		cfg.NumVBuckets = cmap.NumVBuckets
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = 25 * time.Millisecond
	}
	if cfg.Dir == "" {
		cfg.Dir = filepath.Join(os.TempDir(), fmt.Sprintf("couchgo-%d", time.Now().UnixNano()))
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:     cfg,
		buckets: make(map[string]*bucketState),
		stopHB:  make(chan struct{}),
		hbDone:  make(chan struct{}),
		slowLog: metrics.NewSlowQueryLog(cfg.SlowQueryThreshold, cfg.SlowQueryLogSize),
	}
	c.queryEng = query.NewEngine(&clusterStore{c: c})
	c.topo = newDecider(func(bucket string, m *cmap.Map) error {
		return c.ApplyMap(bucket, m, loopbackSource{c, bucket})
	}, &c.nodes)
	if cfg.FailoverTimeout > 0 {
		go c.heartbeatLoop()
	} else {
		close(c.hbDone)
	}
	return c, nil
}

// AddNode joins a node with the given services to the cluster. New
// data nodes take no partitions until the next Rebalance.
func (c *Cluster) AddNode(id cmap.NodeID, services cmap.ServiceSet) (*Node, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClusterClosed
	}
	if _, ok := c.nodes.get(id); ok {
		return nil, fmt.Errorf("core: node %s already exists", id)
	}
	n := newNode(id, services, filepath.Join(c.cfg.Dir, string(id)))
	// Provision existing buckets on the new node (data service only),
	// including their recorded view definitions (views are local
	// indexes, so every data node must build them), and publish it only
	// then: a node that fails here is closed and never joins.
	for _, b := range c.buckets {
		var err error
		if services.Has(cmap.ServiceData) {
			if err = n.addBucket(b, c.cfg); err == nil {
				err = defineRecordedViews(n, b)
			}
		}
		if err != nil {
			for name := range n.buckets.all() {
				n.dropBucket(name)
			}
			return nil, err
		}
	}
	c.nodes.put(id, n)
	if c.cfg.FailoverTimeout > 0 {
		c.topo.Heard(id) // joining is a sign of life, so one killed before the next tick is graded too
	}
	e := events.New(events.Topology, events.SevInfo, "node added")
	e.Node, e.Fields = string(id), map[string]string{"services": services.String()}
	events.Default.Publish(e)
	return n, nil
}

// defineRecordedViews builds the bucket's recorded views on one node's
// local view engine.
func defineRecordedViews(n *Node, b *bucketState) error {
	b.mu.Lock()
	defs := make([]views.Definition, 0, len(b.viewDefs))
	for _, d := range b.viewDefs {
		defs = append(defs, d)
	}
	b.mu.Unlock()
	nb, _ := n.buckets.get(b.name)
	if nb == nil {
		return nil
	}
	for _, d := range defs {
		if err := nb.viewEngine.Define(d); err != nil && !errors.Is(err, views.ErrViewExists) {
			return err
		}
	}
	return nil
}

// Node returns a cluster member.
func (c *Cluster) Node(id cmap.NodeID) (*Node, error) {
	n, ok := c.nodes.get(id)
	if !ok {
		return nil, ErrNoSuchNode
	}
	return n, nil
}

// nodeBucket returns a live node's footprint of a bucket.
func (c *Cluster) nodeBucket(node cmap.NodeID, bucket string) (*nodeBucket, error) {
	n, err := c.Node(node)
	if err != nil {
		return nil, err
	}
	return n.bucket(bucket)
}

// Nodes lists members in ID order.
func (c *Cluster) Nodes() []*Node {
	nodes := c.nodes.all()
	out := make([]*Node, 0, len(nodes))
	for _, n := range nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Orchestrator returns the current orchestrator: the lowest-ID alive
// node. "The nodes also elect a cluster-wide orchestrator node ... if
// the orchestrator node itself crashes, the existing nodes ... will
// elect a new orchestrator immediately." The deterministic lowest-ID
// rule is that election.
func (c *Cluster) Orchestrator() cmap.NodeID {
	for _, n := range c.Nodes() {
		if n.Alive() {
			return n.id
		}
	}
	return ""
}

// CreateBucket provisions a bucket across the current data nodes with
// a balanced vBucket map.
func (c *Cluster) CreateBucket(name string, opts BucketOptions) error {
	// Build the bucket's hub and engines before taking any cluster lock:
	// the index services take their own locks and must not be entered
	// with cluster state locked. A duplicate-name race loses the
	// existence check below and discards its engines unstarted.
	hub := feed.NewHub()
	gsiSvc, err := gsi.NewService(filepath.Join(c.cfg.Dir, "gsi", name), name, hub)
	if err != nil {
		return err
	}
	b := &bucketState{
		name:         name,
		opts:         opts,
		topo:         c.topo,
		hub:          hub,
		gsiSvc:       gsiSvc,
		ftsEng:       fts.NewEngine(hub),
		analyticsEng: analytics.NewEngine(name, hub),
	}
	b.gsiSvc.OnCatalogChange = func() { c.catalogEpoch.Add(1) }
	if err := os.MkdirAll(filepath.Join(c.cfg.Dir, "gsi", name), 0o755); err != nil {
		return err
	}
	c.rebalanceMu.Lock()
	defer c.rebalanceMu.Unlock()
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClusterClosed
	}
	if _, ok := c.buckets[name]; ok {
		c.mu.Unlock()
		return ErrBucketExists
	}
	c.buckets[name] = b
	c.catalogEpoch.Add(1)
	var nodes []*Node
	for _, n := range c.nodes.all() {
		if n.services.Has(cmap.ServiceData) && n.Alive() {
			nodes = append(nodes, n)
		}
	}
	c.mu.Unlock()

	// A bucket not provisioned and formed everywhere is never made.
	fail := func(err error) error {
		c.mu.Lock()
		delete(c.buckets, name)
		c.catalogEpoch.Add(1)
		c.mu.Unlock()
		for _, n := range c.nodes.all() {
			n.dropBucket(name)
		}
		b.close()
		return err
	}
	ids := make([]cmap.NodeID, len(nodes))
	for i, n := range nodes {
		if err := n.addBucket(b, c.cfg); err != nil {
			return fail(err)
		}
		ids[i] = n.id
	}
	// Applying the first map, balanced over the nodes just provisioned,
	// materializes every vBucket and wires replication.
	if err := c.topo.Form(name, ids, c.cfg.NumVBuckets, opts.NumReplicas); err != nil {
		return fail(err)
	}
	e := events.New(events.Topology, events.SevInfo, "bucket created")
	e.Bucket, e.Fields = name, map[string]string{"replicas": strconv.Itoa(opts.NumReplicas), "nodes": strconv.Itoa(len(nodes))}
	events.Default.Publish(e)
	return nil
}

// Bucket returns bucket state (internal and for the public API layer).
func (c *Cluster) bucket(name string) (*bucketState, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.buckets[name]
	if !ok {
		return nil, ErrNoSuchBucket
	}
	return b, nil
}

// Failover performs hard failover of a node (§4.3.1): replicas of its
// active partitions are promoted on the surviving nodes and the
// cluster map revision is bumped so smart clients re-route.
func (c *Cluster) Failover(id cmap.NodeID) error {
	c.rebalanceMu.Lock()
	defer c.rebalanceMu.Unlock()
	n, err := c.Node(id)
	if err != nil {
		return err
	}
	n.alive.Store(false)
	e := events.New(events.Topology, events.SevWarn, "node failed over")
	e.Node = string(id)
	events.Default.Publish(e)
	return c.topo.Failover(id)
}

// Kill simulates a node crash: the node stops serving and its DCP
// producers close, severing replication streams. Detection and
// failover then happen via the heartbeat loop (or a manual Failover).
func (c *Cluster) Kill(id cmap.NodeID) error {
	n, err := c.Node(id)
	if err != nil {
		return err
	}
	n.alive.Store(false)
	for _, nb := range n.buckets.all() {
		for _, vb := range nb.vbs.all() {
			vb.Producer().Close()
		}
	}
	e := events.New(events.Topology, events.SevWarn, "node down (simulated crash)")
	e.Node = string(id)
	events.Default.Publish(e)
	return nil
}

// Rebalance redistributes vBuckets evenly over the live data nodes
// (§4.3.1): new target map, per-partition movement over DCP, and an
// atomic switchover per partition.
func (c *Cluster) Rebalance() error {
	c.rebalanceMu.Lock()
	defer c.rebalanceMu.Unlock()
	var live []cmap.NodeID
	for _, n := range c.Nodes() {
		if n.services.Has(cmap.ServiceData) && n.Alive() {
			live = append(live, n.id)
		}
	}
	if len(live) == 0 {
		return fmt.Errorf("core: no data nodes to rebalance onto")
	}
	e := events.New(events.Topology, events.SevInfo, "rebalance started")
	e.Fields = map[string]string{"data_nodes": fmt.Sprintf("%d", len(live))}
	events.Default.Publish(e)
	// Every live data node already holds every bucket: CreateBucket
	// provisions the nodes there are, AddNode the buckets there are.
	if err := c.topo.Rebalance(live, c.stepVB); err != nil {
		return err
	}
	events.Default.Publish(events.New(events.Topology, events.SevInfo, "rebalance complete"))
	return nil
}

// stepVB is the decider's rebalance step: one vBucket's switchover to
// its chain in next. A new active is built from the current one over a
// DCP catch-up stream, with writes stopped on the source, and then the
// map is applied — the paper's "atomic and consistent switchover". The
// step is narrated by "vb moved", not by a map entry per partition.
func (c *Cluster) stepVB(bucket string, vbID int, next *cmap.Map) error {
	from, to := c.topo.Map(bucket).Active(vbID), next.Active(vbID)
	if from != "" && from != to {
		if err := c.moveVB(bucket, vbID, from, to); err != nil {
			return err
		}
	}
	return c.applyMap(bucket, next, loopbackSource{c, bucket}, false)
}

// moveVB builds vbID's new active on node to from the current one and
// stops writes on the source; the map flip is the caller's.
func (c *Cluster) moveVB(bucket string, vbID int, from, to cmap.NodeID) error {
	srcNB, err := c.nodeBucket(from, bucket)
	if err != nil {
		return err
	}
	dstNB, err := c.nodeBucket(to, bucket)
	if err != nil {
		return err
	}
	srcVB := srcNB.vb(vbID)
	if srcVB == nil {
		return fmt.Errorf("core: vb %d missing on %s", vbID, from)
	}
	// Destination builds as Pending ("rebalance marks the destination
	// partitions as being replicas until they are ready to be switched
	// to active"), fed by the same link a replica is.
	dstVB, err := dstNB.createVB(vbID, vbucket.Pending)
	if err != nil {
		return err
	}
	dstNB.pointLink(dstVB, from, loopbackSource{c, bucket})

	// Stop accepting writes on the source and let the destination catch
	// up; the map flip follows.
	srcVB.SetState(vbucket.Dead)
	srcHigh := srcVB.HighSeqno()
	deadline := time.Now().Add(30 * time.Second)
	for dstVB.HighSeqno() < srcHigh {
		if time.Now().After(deadline) {
			return fmt.Errorf("core: vb %d takeover timed out (%d < %d)", vbID, dstVB.HighSeqno(), srcHigh)
		}
		time.Sleep(200 * time.Microsecond)
	}
	e := events.New(events.VBucket, events.SevInfo, "vb moved")
	e.Bucket, e.VB, e.Fields = bucket, vbID, map[string]string{"from": string(from), "to": string(to)}
	events.Default.Publish(e)
	return nil
}

// heartbeatLoop is the one failure-detection ticker: each tick the
// alive local nodes are heard from, then the decider fails over the
// silent ones. On a networked seed the other members are heard where
// their heartbeats arrive; a member hears only itself, so it fails
// nobody over. A process that left ticks no more.
func (c *Cluster) heartbeatLoop() {
	defer close(c.hbDone)
	ticker := time.NewTicker(c.cfg.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopHB:
			return
		case <-ticker.C:
		}
		if c.left.Load() {
			return
		}
		for _, n := range c.nodes.all() {
			if n.Alive() {
				c.topo.Heard(n.id)
			}
		}
		c.topo.FailoverSilent(c.cfg.FailoverTimeout)
	}
}

// Decider returns the cluster's topology decider. A networked seed
// drives it with its members' heartbeats.
func (c *Cluster) Decider() *Decider { return c.topo }

// BucketQuota returns the bucket's cache memory quota in bytes (0 when
// the bucket is unknown or has no quota configured).
func (c *Cluster) BucketQuota(name string) int64 {
	b, err := c.bucket(name)
	if err != nil {
		return 0
	}
	return b.opts.MemoryQuotaBytes
}

// SeverReplication halts every inbound replica link of the bucket on
// this cluster's nodes; a copy gets a fresh one when a later map
// changes its chain. It is a chaos hook: subsequent writes stay on the
// active copies only — the ingredient for divergent history (and DCP
// rollback) at failover.
func (c *Cluster) SeverReplication(bucketName string) error {
	if _, err := c.bucket(bucketName); err != nil {
		return err
	}
	for _, n := range c.Nodes() {
		if nb, err := n.bucket(bucketName); err == nil {
			nb.haltLinks()
		}
	}
	return nil
}

// NumVBuckets returns a bucket's partition count.
func (c *Cluster) NumVBuckets(bucketName string) (int, error) {
	b, err := c.bucket(bucketName)
	if err != nil {
		return 0, err
	}
	return b.Map().NumVBuckets, nil
}

// VBProducer resolves the DCP producer of the current active copy of
// one vBucket. XDCR's topology loop uses this: it is how the
// replicator stays "cluster topology aware" — after failover or
// rebalance the next resolution lands on the new active automatically,
// and the shared feed layer reattaches (with failover-log validation)
// against it.
func (c *Cluster) VBProducer(bucketName string, vbID int) (*dcp.Producer, error) {
	vb, err := c.active(bucketName, vbID)
	if err != nil {
		return nil, err
	}
	return vb.Producer(), nil
}

// FeedStats aggregates the bucket's DCP feed stats across every
// consuming service: the bucket hub's GSI projector, FTS, and analytics
// feeds, plus each alive data node's local view feeds (annotated with
// the node ID).
func (c *Cluster) FeedStats(bucketName string) ([]feed.Stat, error) {
	b, err := c.bucket(bucketName)
	if err != nil {
		return nil, err
	}
	out := b.hub.Stats()
	for _, n := range c.Nodes() {
		nb, err := n.bucket(bucketName)
		if err != nil {
			continue
		}
		for _, st := range nb.viewEngine.FeedStats() {
			st.Node = string(n.id)
			out = append(out, st)
		}
	}
	return out, nil
}

// Stats aggregates per-node stats for one bucket.
func (c *Cluster) Stats(bucketName string) []NodeStats {
	var out []NodeStats
	for _, n := range c.Nodes() {
		out = append(out, n.stats(bucketName))
	}
	return out
}

// BucketNames lists the cluster's buckets, sorted.
func (c *Cluster) BucketNames() []string {
	c.mu.Lock()
	out := make([]string, 0, len(c.buckets))
	for name := range c.buckets {
		out = append(out, name)
	}
	c.mu.Unlock()
	sort.Strings(out)
	return out
}

// SlowQueries returns the retained slow-query log entries, most
// recent first.
func (c *Cluster) SlowQueries() []metrics.SlowQuery {
	return c.slowLog.Entries()
}

// HeartbeatInterval is Config.HeartbeatInterval: the detector's tick and
// a networked member's heartbeat pace.
func (c *Cluster) HeartbeatInterval() time.Duration { return c.cfg.HeartbeatInterval }

// SlowQueryThreshold reports the active slow-query cutoff.
func (c *Cluster) SlowQueryThreshold() time.Duration {
	return c.slowLog.Threshold()
}

// SlowQueryTotal counts every statement that ever crossed the
// threshold, including entries the ring has since overwritten.
func (c *Cluster) SlowQueryTotal() uint64 {
	return c.slowLog.Total()
}

// Close shuts the cluster down.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	nodes := c.nodes.all()
	buckets := make([]*bucketState, 0, len(c.buckets))
	for _, b := range c.buckets {
		buckets = append(buckets, b)
	}
	c.mu.Unlock()
	close(c.stopHB)
	<-c.hbDone
	for _, n := range nodes {
		for name := range n.buckets.all() {
			n.dropBucket(name)
		}
	}
	for _, b := range buckets {
		b.close()
	}
}

// close stops the bucket's feeds, then its index service's indexers.
func (b *bucketState) close() {
	b.hub.Close()
	b.gsiSvc.Close()
}
