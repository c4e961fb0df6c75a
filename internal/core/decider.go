package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/events"
)

// Decider is the topology half of the cluster manager (§4.3.1): the
// one place that chooses a bucket's next cluster map. It owns the
// liveness table it detects failures by, the failed set and each
// bucket's current map, and this file is the only non-test caller of
// cmap's map-minting functions (TestOnlyTheDeciderMintsMaps). Who a new
// map is balanced over is the caller's to say: an in-process cluster
// names its alive data nodes, a
// networked seed the members it has heard from (Live). Every map the
// decider mints leaves through the publish seam, which brings the
// members to it: an in-process cluster applies it to its own nodes, a
// networked seed applies it to itself and pushes it to its peers (a
// rebalance that goes partition by partition hands each step to its
// step function instead). The current map changes only when the applier
// installs one (a minted map on its way out, a pushed one on a joiner),
// so a process holds one map per bucket however it got there.
type Decider struct {
	// trans serializes transitions: each starts from the map the
	// previous one published. It guards publish, which delivers a minted
	// map to the members and reports the first failure; publish runs
	// with trans held and the table unlocked.
	trans   sync.Mutex
	publish func(bucket string, m *cmap.Map) error

	mu     sync.Mutex
	heard  map[cmap.NodeID]time.Time // when each node was last heard from
	failed map[cmap.NodeID]bool
	now    func() time.Time // the one clock heard and silence are read by
	// buckets is read by every op (Map, Route) with no lock; Form
	// publishes a bucket, and install and placed its next route table,
	// all under mu.
	buckets published[string, *bucketTopology]
	// nodes are this process's nodes, which route tables name, and
	// reach the conn to a node in another process (nil: none).
	nodes *published[cmap.NodeID, *Node]
	reach func(cmap.NodeID) NodeConn
}

// bucketTopology is a bucket's current map with its route table
// (loopback.go), and the shape the bucket was created with; the map's
// own NumReplicas is clamped to nodes-1, so a map over no nodes says 0
// whatever the bucket asked for.
type bucketTopology struct {
	t                        atomic.Pointer[routeTable]
	numVBuckets, numReplicas int
}

// current returns the bucket's current map, nil before its first.
func (b *bucketTopology) current() *cmap.Map {
	if t := b.t.Load(); t != nil {
		return t.m
	}
	return nil
}

func newDecider(publish func(bucket string, m *cmap.Map) error, nodes *published[cmap.NodeID, *Node]) *Decider {
	return &Decider{
		publish: publish,
		heard:   make(map[cmap.NodeID]time.Time),
		failed:  make(map[cmap.NodeID]bool),
		now:     time.Now,
		nodes:   nodes,
	}
}

// PublishVia replaces the publish seam, between transitions, and names
// the conn each later route table reaches a node outside this process
// by: a networked process points both at the wire.
func (d *Decider) PublishVia(publish func(bucket string, m *cmap.Map) error, reach func(cmap.NodeID) NodeConn) {
	d.trans.Lock()
	defer d.trans.Unlock()
	d.publish = publish
	d.mu.Lock()
	d.reach = reach
	d.mu.Unlock()
}

// Heard records a sign of life from a node, under the name the maps use
// for it — on a networked seed a process's heartbeats, in a cluster with
// a failover timeout AddNode and the heartbeat tick — and reports how
// many have been heard from and whether this was the first contact.
func (d *Decider) Heard(id cmap.NodeID) (members int, joined bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, known := d.heard[id]
	d.heard[id] = d.now()
	return len(d.heard), !known
}

// Live lists the nodes heard from and not failed over, in no particular
// order: a networked seed's members, which it balances a map over and
// pushes one to.
func (d *Decider) Live() []cmap.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]cmap.NodeID, 0, len(d.heard))
	for id := range d.heard {
		if !d.failed[id] {
			out = append(out, id)
		}
	}
	return out
}

// Map returns the bucket's current map, nil for an unknown bucket. It
// is the per-response epoch read: loads and an index, no lock, no
// allocation.
func (d *Decider) Map(bucket string) *cmap.Map {
	if b, ok := d.buckets.get(bucket); ok {
		return b.current()
	}
	return nil
}

// install makes m the bucket's current map unless it is stale — the
// Rev rule: only a strictly newer map replaces the current one — with
// its route table, and returns the map it replaced.
func (d *Decider) install(bucket string, m *cmap.Map) (prev *cmap.Map, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, _ := d.buckets.get(bucket)
	if b == nil {
		return nil, false
	}
	if prev = b.current(); prev != nil && m.Rev <= prev.Rev {
		return nil, false
	}
	b.t.Store(d.routeTableLocked(bucket, m))
	return prev, true
}

// Form records a new bucket's shape and publishes its first map,
// balanced over the given nodes.
func (d *Decider) Form(bucket string, over []cmap.NodeID, numVBuckets, numReplicas int) error {
	d.trans.Lock()
	defer d.trans.Unlock()
	d.mu.Lock()
	d.buckets.put(bucket, &bucketTopology{numVBuckets: numVBuckets, numReplicas: numReplicas})
	d.mu.Unlock()
	err := d.rebalanceLocked(bucket, over, nil)
	if err != nil { // a bucket that did not form has no map
		d.mu.Lock()
		d.buckets.drop(bucket)
		d.mu.Unlock()
	}
	return err
}

// Rebalance brings every bucket to the map balanced over the given
// nodes. With a step function it goes one vBucket at a time: step is
// handed each changed vBucket's chain step and performs that
// partition's switchover — build the new active from the old one, then
// apply the map (the paper's per-partition switchover). Without one
// (the members are separate processes, which have no live transfer yet)
// the target is published whole.
func (d *Decider) Rebalance(over []cmap.NodeID, step func(bucket string, vb int, next *cmap.Map) error) error {
	d.trans.Lock()
	defer d.trans.Unlock()
	for _, bucket := range d.bucketNames() {
		if err := d.rebalanceLocked(bucket, over, step); err != nil {
			return err
		}
	}
	return nil
}

// rebalanceLocked is one bucket's rebalance; the caller holds trans.
func (d *Decider) rebalanceLocked(bucket string, over []cmap.NodeID, step func(bucket string, vb int, next *cmap.Map) error) error {
	b, _ := d.buckets.get(bucket)
	cur := b.current()
	var rev int64
	if cur != nil {
		// Above the current map, so a process's first formed map wins
		// over the one its bucket was created with, on every member.
		rev = cur.Rev
	}
	target := cmap.BuildBalanced(rev+1, over, b.numVBuckets, b.numReplicas)
	changed := cmap.Changed(cur, target)
	if step == nil {
		if len(changed) == 0 {
			return nil
		}
		return d.publish(bucket, target)
	}
	for _, vb := range changed {
		cur = cur.WithChain(vb, target.Active(vb), target.Replicas(vb))
		if err := step(bucket, vb, cur); err != nil {
			return err
		}
	}
	return nil
}

// Failover takes a member out of service (§4.3.1 hard failover): it
// joins the failed set, and every bucket whose map still names it gets
// a successor in which its active copies are replaced by their first
// replica and its replica slots are vacated. A member no map names
// changes nothing and publishes nothing.
func (d *Decider) Failover(id cmap.NodeID) error {
	d.trans.Lock()
	defer d.trans.Unlock()
	d.mu.Lock()
	d.failed[id] = true
	d.mu.Unlock()
	for _, bucket := range d.bucketNames() {
		cur := d.Map(bucket)
		if next := cur.FailoverNode(id); next != cur {
			if err := d.publish(bucket, next); err != nil {
				return err
			}
		}
	}
	return nil
}

// FailoverSilent is the one failure detector (§4.3.1: "if a node in the
// cluster crashes ... the orchestrator ... promotes to active status
// replica partitions"): it fails over every node heard from that a map
// still names and that has been silent past timeout, journaling
// "auto-failover" before and "auto-failover failed" after one that errs,
// and returns them. Its one ticker, Cluster.heartbeatLoop, first hears
// the alive local nodes.
func (d *Decider) FailoverSilent(timeout time.Duration) (failed []cmap.NodeID) {
	now := d.now()
	silence := map[cmap.NodeID]time.Duration{}
	d.mu.Lock()
	for id, at := range d.heard {
		if s := now.Sub(at); s > timeout {
			silence[id] = s
		}
	}
	d.mu.Unlock()
	journal := func(id cmap.NodeID, msg, key, value string) {
		e := events.New(events.Topology, events.SevWarn, msg)
		e.Node, e.Fields = string(id), map[string]string{key: value}
		events.Default.Publish(e)
	}
	for id, s := range silence {
		if !d.mapped(id) {
			continue
		}
		journal(id, "auto-failover", "silence", s.Round(time.Millisecond).String())
		if err := d.Failover(id); err != nil {
			journal(id, "auto-failover failed", "error", err.Error())
		}
		failed = append(failed, id)
	}
	return failed
}

// mapped reports whether a bucket's map names the node in a chain.
func (d *Decider) mapped(id cmap.NodeID) bool {
	for _, b := range d.buckets.all() {
		if m := b.current(); m != nil && m.Maps(id) {
			return true
		}
	}
	return false
}

func (d *Decider) bucketNames() []string {
	buckets := d.buckets.all()
	out := make([]string, 0, len(buckets))
	for name := range buckets {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
