// Package core implements the paper's primary contribution: the
// integrated Couchbase-style server. A Node is one cluster member
// running a configurable set of services (multi-dimensional scaling,
// §4.4); a Cluster wires Nodes together — hash-partitioned data service
// with the memory-first write path (§4.2), DCP-fed intra-cluster
// replication (§4.1.1), per-node view engines (§4.3.3), the GSI
// projector/indexer split (§4.3.4), the N1QL query service (§4.3.5),
// the cluster manager with orchestrator election, failover, and
// rebalance (§4.3.1), and the smart-client routing of Figure 5.
package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"couchgo/internal/cache"
	"couchgo/internal/cmap"
	"couchgo/internal/feed"
	"couchgo/internal/storage"
	"couchgo/internal/trace"
	"couchgo/internal/vbucket"
	"couchgo/internal/views"
)

// Errors surfaced by the data service.
var (
	ErrNodeDown      = errors.New("core: node is not responding")
	ErrNoSuchBucket  = errors.New("core: no such bucket")
	ErrNoSuchNode    = errors.New("core: no such node")
	ErrBucketExists  = errors.New("core: bucket already exists")
	ErrClusterClosed = errors.New("core: cluster is closed")
)

// Node is one cluster member.
type Node struct {
	id       cmap.NodeID
	services cmap.ServiceSet
	dir      string

	// alive simulates process liveness: a "down" node stops serving
	// requests and stops heartbeating (§4.3.1 failure detection).
	alive atomic.Bool
	// mu serializes the writers of buckets, which served ops read with
	// no lock.
	mu sync.Mutex
	// buckets: per-bucket data-service state on this node, published by
	// addBucket and emptied by Cluster.Close.
	buckets published[string, *nodeBucket]
}

// nodeBucket is one bucket's data-service footprint on one node.
type nodeBucket struct {
	// nodeID and bucketName identify this footprint in journal events.
	nodeID     string
	bucketName string
	// topo's route table names this footprint's active copies.
	topo *Decider

	store *storage.Store
	// mu serializes copy creation, promotion and removal (the writers of
	// vbs) and guards links.
	mu sync.Mutex
	// vbs: this node's copies by vBucket ID, read with no lock by served
	// ops; createVB, demoteAndDrop and close publish under mu, the first
	// two the route table too (Decider.placed).
	vbs published[int, *vbucket.VBucket]
	// pagerStop ends the item-pager goroutine (set when the bucket has
	// a memory quota).
	pagerStop chan struct{}
	// maintStop ends the maintenance goroutine (compactor + expiry
	// pager).
	maintStop chan struct{}
	// viewEngine indexes this node's active vBuckets (views are local
	// indexes co-located with the data, §3.3.1).
	viewEngine *views.Engine
	// hub is the bucket's feed hub, shared by every node's footprint:
	// this node's active copies feed GSI, FTS and analytics through it.
	hub *feed.Hub
	// vbCfg configures the node's vBuckets for this bucket.
	vbCfg vbucket.Config
	// links: the inbound replica stream of each replica/pending copy on
	// THIS node, by vBucket (see reconcile.go).
	links map[int]*replicaLink
	// bg counts the footprint's goroutines — pager, maintenance, and
	// every link, including halted ones still unwinding — so close can
	// wait them all out before it closes the files under them.
	bg sync.WaitGroup
}

func newNode(id cmap.NodeID, services cmap.ServiceSet, dir string) *Node {
	n := &Node{id: id, services: services, dir: dir}
	n.alive.Store(true)
	return n
}

// ID returns the node's identity.
func (n *Node) ID() cmap.NodeID { return n.id }

// Services returns the node's service set.
func (n *Node) Services() cmap.ServiceSet { return n.services }

// Alive reports simulated liveness.
func (n *Node) Alive() bool { return n.alive.Load() }

func (n *Node) bucket(name string) (*nodeBucket, error) {
	if !n.Alive() {
		return nil, ErrNodeDown
	}
	nb, ok := n.buckets.get(name)
	if !ok {
		return nil, ErrNoSuchBucket
	}
	return nb, nil
}

// addBucket provisions the bucket's storage and engines on this node.
// A nonzero memory quota bounds this node's cache for the bucket and
// starts the item pager (§4.3.3 value or full eviction).
func (n *Node) addBucket(b *bucketState, cfg Config) error {
	// Build everything before taking n.mu: store creation touches disk.
	// A concurrent duplicate loses the insert race below and is released.
	name, opts := b.name, b.opts
	store, err := storage.NewStore(filepath.Join(n.dir, "data", name), cfg.SyncPersist)
	if err != nil {
		return err
	}
	nb := &nodeBucket{
		nodeID:     string(n.id),
		bucketName: name,
		topo:       b.topo,
		store:      store,
		viewEngine: views.NewEngine(),
		hub:        b.hub,
		links:      make(map[int]*replicaLink),
		vbCfg: vbucket.Config{
			DiskDelay:    cfg.DiskDelay,
			FullEviction: opts.FullEviction,
		},
	}
	n.mu.Lock()
	if _, ok := n.buckets.get(name); ok {
		n.mu.Unlock()
		store.Close()
		return ErrBucketExists
	}
	if opts.MemoryQuotaBytes > 0 {
		nb.pagerStop = make(chan struct{})
		nb.bg.Add(1)
		go nb.pagerLoop(opts.MemoryQuotaBytes, opts.FullEviction)
	}
	nb.maintStop = make(chan struct{})
	nb.bg.Add(1)
	go nb.maintenanceLoop()
	n.buckets.put(name, nb)
	n.mu.Unlock()
	return nil
}

// compactionCooldown is the minimum interval between two compactions
// of the same vBucket file. Without it an update-heavy workload
// refragments a small hot file within a tick and the compactor
// rewrites (and fsyncs, and holds the file mutex of) the same file
// several times per second — pure write amplification that showed up
// as hundreds-of-milliseconds front-end latency outliers. Steady-state
// fragmentation stays bounded: the file is still compacted, just at
// most once per cooldown.
const compactionCooldown = 5 * time.Second

// maxCompactionsPerTick bounds how many vBucket files one maintenance
// tick may rewrite. An update-heavy phase fragments every file at
// roughly the same rate, so they all cross the threshold on the same
// tick; compacting the whole set at once is a burst of file rewrites
// and fsyncs that front-end operations feel. Two per tick drains a
// 64-vBucket backlog in ~8s while keeping background write
// amplification smooth.
const maxCompactionsPerTick = 2

// maintenanceLoop runs the background chores of the data service: the
// online compactor and the proactive expiry pager.
func (nb *nodeBucket) maintenanceLoop() {
	defer nb.bg.Done()
	ticker := time.NewTicker(250 * time.Millisecond)
	defer ticker.Stop()
	lastCompact := map[int]time.Time{}
	for {
		select {
		case <-nb.maintStop:
			return
		case <-ticker.C:
		}
		var tables []*cache.HashTable
		compacted := 0
		for _, vb := range nb.vbs.all() {
			tables = append(tables, vb.Table)
			f, err := nb.store.VB(vb.ID)
			if err != nil {
				continue
			}
			st := f.Stats()
			// Only compact files worth it, not more often than the
			// cooldown allows, and never more than a few per tick (vbs
			// comes from map iteration, so the candidates skipped by the
			// cap rotate tick to tick).
			if compacted < maxCompactionsPerTick && st.WorthCompacting() &&
				time.Since(lastCompact[vb.ID]) >= compactionCooldown {
				compacted++
				lastCompact[vb.ID] = time.Now()
				// Compactions are rare and interesting, so they bypass
				// the sampling tick: every one is traced while tracing
				// is enabled at all.
				_, sp := trace.Default.Force(context.Background(), "storage:compact")
				if sp != nil {
					sp.Annotate("vb", strconv.Itoa(vb.ID))
					sp.Annotate("file_bytes", strconv.FormatInt(st.FileBytes, 10))
				}
				err := f.Compact()
				if sp != nil {
					sp.Error(err)
					sp.End()
				}
			}
		}
		cache.ExpiryPager(tables, time.Now().Unix())
	}
}

// pagerLoop periodically evicts not-recently-used values when the
// node's cache use for this bucket crosses the high watermark: "the
// associated values can be evicted based on usage" while every key and
// its metadata stay resident.
func (nb *nodeBucket) pagerLoop(quota int64, fullEviction bool) {
	defer nb.bg.Done()
	pager := &cache.Pager{Quota: cache.Quota{Bytes: quota}, FullEviction: fullEviction}
	ticker := time.NewTicker(50 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-nb.pagerStop:
			return
		case <-ticker.C:
		}
		vbs := nb.vbs.all()
		tables := make([]*cache.HashTable, 0, len(vbs))
		persisted := make([]uint64, 0, len(vbs))
		for _, vb := range vbs {
			tables = append(tables, vb.Table)
			persisted = append(persisted, vb.PersistedSeqno())
		}
		if pager.NeedsEviction(tables) {
			pager.Run(tables, persisted, time.Now().Unix())
		}
	}
}

// createVB instantiates a vBucket in the given state. Active vBuckets
// are attached to the node's view engine and the bucket's hub.
func (nb *nodeBucket) createVB(id int, state vbucket.State) (*vbucket.VBucket, error) {
	nb.mu.Lock()
	defer nb.mu.Unlock()
	if vb, ok := nb.vbs.get(id); ok {
		return vb, nil
	}
	f, err := nb.store.VB(id)
	if err != nil {
		return nil, err
	}
	// Creation, warmup, and map insert must be atomic under nb.mu so a
	// concurrent createVB neither double-builds nor observes a cold
	// vBucket. The vbucket layer never calls back into core, so the
	// lock order nb.mu -> vbucket is acyclic.
	vb := vbucket.New(id, f, state, nb.vbCfg) //couchvet:ignore lockblock -- atomic create+insert; vbucket never re-enters core
	// Restart warmup: a pre-existing file means a previous incarnation
	// persisted data here; replay it into the cache before any
	// consumer attaches.
	if f.HighSeqno() > 0 {
		if err := vb.WarmUp(); err != nil { //couchvet:ignore lockblock -- atomic create+insert; vbucket never re-enters core
			vb.Close() //couchvet:ignore lockblock -- atomic create+insert; vbucket never re-enters core
			return nil, err
		}
	}
	if state == vbucket.Active {
		nb.attachConsumersLocked(vb)
	}
	nb.vbs.put(id, vb)
	nb.topo.placed(nb.bucketName, cmap.NodeID(nb.nodeID), id, vb)
	return vb, nil
}

// attachConsumersLocked attaches an active copy to the node's view
// engine and to the bucket's hub, which moves every GSI, FTS and
// analytics feed of the vBucket onto it.
func (nb *nodeBucket) attachConsumersLocked(vb *vbucket.VBucket) {
	nb.viewEngine.AttachVB(vb.ID, vb.Producer())
	nb.hub.AttachVB(vb.ID, vb.Producer())
}

// detachConsumers removes the vBucket from this node's PER-NODE
// consumers only (the view engine, §4.3.3 — views are co-located with
// the data). The bucket's hub is shared across the cluster: when a
// vBucket moves, the new active node's attach replaces the hub's
// producer (closing the old streams), so detaching it here would wipe
// index state that the promoted copy still serves.
func (nb *nodeBucket) detachConsumers(vbID int) {
	nb.viewEngine.DetachVB(vbID)
}

// vb returns the vBucket, or nil.
func (nb *nodeBucket) vb(id int) *vbucket.VBucket {
	vb, _ := nb.vbs.get(id)
	return vb
}

// dropBucket unpublishes the node's footprint of a bucket and closes it.
func (n *Node) dropBucket(name string) {
	n.mu.Lock()
	nb, ok := n.buckets.get(name)
	n.buckets.drop(name)
	n.mu.Unlock()
	if ok {
		nb.close()
	}
}

// close shuts down all vBuckets and engines for this bucket.
func (nb *nodeBucket) close() {
	if nb.pagerStop != nil {
		close(nb.pagerStop)
	}
	if nb.maintStop != nil {
		close(nb.maintStop)
	}
	nb.haltLinks()
	nb.bg.Wait()
	nb.mu.Lock()
	vbs := nb.vbs.all()
	nb.vbs.reset()
	nb.mu.Unlock()
	nb.viewEngine.Close()
	for _, vb := range vbs {
		vb.SetState(vbucket.Dead) // a route table may still name it
		vb.Close()
	}
	nb.store.Close()
}

// NodeStats summarizes a node's data-service footprint.
type NodeStats struct {
	ID         cmap.NodeID     `json:"node"`
	Services   cmap.ServiceSet `json:"services"`
	Alive      bool            `json:"alive"`
	ActiveVBs  int             `json:"active_vbs"`
	ReplicaVBs int             `json:"replica_vbs"`
	Items      int64           `json:"items"`
	MemUsed    int64           `json:"mem_used"`
	// Tombstones and NonResident describe cache composition: deleted
	// metadata retained for replication, and value-evicted items.
	Tombstones  int64 `json:"tombstones"`
	NonResident int64 `json:"non_resident"`
	// QueueDepth is the summed disk-write queue backlog across this
	// node's active vBuckets (Figure 6's drain queue).
	QueueDepth int `json:"queue_depth"`
	// DiskBytes / DiskLiveBytes describe the append-only files; their
	// difference is reclaimable fragmentation.
	DiskBytes     int64 `json:"disk_bytes"`
	DiskLiveBytes int64 `json:"disk_live_bytes"`
	// DCPLags sums items-remaining per DCP stream name (e.g.
	// "replica:node1", "gsi-projector") across this node's vBuckets.
	DCPLags map[string]uint64 `json:"dcp_lags,omitempty"`
}

// stats gathers per-node counters for one bucket.
func (n *Node) stats(bucketName string) NodeStats {
	st := NodeStats{ID: n.id, Services: n.services, Alive: n.Alive()}
	nb, _ := n.buckets.get(bucketName)
	if nb == nil {
		return st
	}
	for _, vb := range nb.vbs.all() {
		switch vb.State() {
		case vbucket.Active:
			st.ActiveVBs++
			ts := vb.Table.Stats()
			st.Items += ts.Items
			st.MemUsed += ts.MemUsed
			st.Tombstones += ts.Tombstones
			st.NonResident += ts.NonResident
			st.QueueDepth += vb.QueueDepth()
			if f, err := nb.store.VB(vb.ID); err == nil {
				fs := f.Stats()
				st.DiskBytes += fs.FileBytes
				st.DiskLiveBytes += fs.LiveBytes
			}
			for name, lag := range vb.Producer().StreamLags() {
				if st.DCPLags == nil {
					st.DCPLags = make(map[string]uint64)
				}
				st.DCPLags[name] += lag
			}
		case vbucket.Replica, vbucket.Pending:
			st.ReplicaVBs++
		}
	}
	return st
}

// --- node-level KV entry points (invoked by the cluster router) ---

func (n *Node) kvVB(bucket string, vbID int) (*vbucket.VBucket, error) {
	nb, err := n.bucket(bucket)
	if err != nil {
		return nil, err
	}
	vb := nb.vb(vbID)
	if vb == nil {
		return nil, fmt.Errorf("%w (vb %d absent)", vbucket.ErrNotMyVBucket, vbID)
	}
	return vb, nil
}
