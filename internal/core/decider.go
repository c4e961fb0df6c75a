package core

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"couchgo/internal/cmap"
)

// Decider is the topology half of the cluster manager (§4.3.1): the
// one place that chooses a bucket's next cluster map. It owns the
// liveness table, the failed set and each bucket's current map, and
// this file is the only non-test caller of cmap's map-minting functions
// (TestOnlyTheDeciderMintsMaps). Who a new map is balanced over is the
// caller's to say: an in-process cluster names its alive data nodes, a
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
	// buckets is read by every op (Map) with no lock; Form publishes a
	// bucket and install its next map, both under mu.
	buckets published[string, *bucketTopology]
}

// bucketTopology is a bucket's current map and the shape it was
// created with; the map's own NumReplicas is clamped to nodes-1, so a
// one-node bootstrap map says 0 whatever the bucket asked for.
type bucketTopology struct {
	m                        atomic.Pointer[cmap.Map]
	numVBuckets, numReplicas int
}

func newDecider(publish func(bucket string, m *cmap.Map) error) *Decider {
	return &Decider{
		publish: publish,
		heard:   make(map[cmap.NodeID]time.Time),
		failed:  make(map[cmap.NodeID]bool),
	}
}

// PublishVia replaces the publish seam, between transitions: a
// networked process points it at the wire.
func (d *Decider) PublishVia(publish func(bucket string, m *cmap.Map) error) {
	d.trans.Lock()
	defer d.trans.Unlock()
	d.publish = publish
}

// Heard records a sign of life from a node — a process's join and
// heartbeats on a networked seed, the library's own heartbeat tick
// in-process — and reports how many have been heard from and whether
// this was the first contact.
func (d *Decider) Heard(id cmap.NodeID) (members int, joined bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, known := d.heard[id]
	d.heard[id] = time.Now()
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
// is the per-op routing read and the per-response epoch read: two
// loads and an index, no lock, no allocation.
func (d *Decider) Map(bucket string) *cmap.Map {
	if b, ok := d.buckets.get(bucket); ok {
		return b.m.Load()
	}
	return nil
}

// install makes m the bucket's current map unless it is stale — the
// Rev rule: only a strictly newer map replaces the current one — and
// returns the map it replaced.
func (d *Decider) install(bucket string, m *cmap.Map) (prev *cmap.Map, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, _ := d.buckets.get(bucket)
	if b == nil {
		return nil, false
	}
	if prev = b.m.Load(); prev != nil && m.Rev <= prev.Rev {
		return nil, false
	}
	b.m.Store(m)
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
	return d.rebalanceLocked(bucket, over, nil)
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
	cur := b.m.Load()
	var rev int64
	if cur != nil {
		// Above the current map, so a target minted over a process's
		// bootstrap map wins every member's staleness check.
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

// Silence reports how long ago the node was last heard from (forever,
// if it never was) and whether any bucket's map still names it as an
// active or a replica; failover leaves it named by none. It is the input
// of the one failure-detection rule: silence past the process's
// timeout, on a node still mapped, leads to Failover. Whoever evaluates
// it — the library's heartbeat loop or a watchdog check — brings the
// timeout.
func (d *Decider) Silence(id cmap.NodeID) (silent time.Duration, mapped bool) {
	d.mu.Lock()
	silent = time.Since(d.heard[id])
	d.mu.Unlock()
	for _, b := range d.buckets.all() {
		if m := b.m.Load(); m != nil && m.Maps(id) {
			return silent, true
		}
	}
	return silent, false
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
