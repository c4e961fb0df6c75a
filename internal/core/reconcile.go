package core

import (
	"errors"
	"strconv"
	"sync"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/dcp"
	"couchgo/internal/events"
	"couchgo/internal/vbucket"
)

// This file is the one applier of cluster maps (ApplyMap), the one
// place a node's copy of a vBucket changes role (§4.3.1) and the one
// loop that feeds a replica copy over DCP (§4.3.2). Both control
// planes end up here: the in-process cluster for all of its nodes with
// the loopback source, a member process of a networked cluster for its
// one node with the socket source.

// ReplicaSource is the per-transport seam under a replica link: where
// the active copy's DCP producer lives, and how an applied seqno gets
// back to it.
type ReplicaSource interface {
	// Source returns the stream source for node's copy of vb.
	Source(node cmap.NodeID, vb int) (dcp.StreamSource, error)
	// Ack tells src, over the stream it served, that replica has applied
	// everything up to seqno.
	Ack(src dcp.StreamSource, stream dcp.MutationStream, replica string, seqno uint64)
}

// loopbackSource resolves sources among the nodes of one process.
type loopbackSource struct {
	c      *Cluster
	bucket string
}

// loopbackProducer is a local producer plus the copy that owns it, so
// Ack reaches the copy's replica ack set without a lookup per ack.
type loopbackProducer struct {
	*dcp.Producer
	vb *vbucket.VBucket
}

func (s loopbackSource) Source(node cmap.NodeID, vb int) (dcp.StreamSource, error) {
	n, err := s.c.Node(node)
	if err != nil {
		return nil, err
	}
	v, err := n.kvVB(s.bucket, vb)
	if err != nil {
		return nil, err
	}
	return loopbackProducer{v.Producer(), v}, nil
}

func (loopbackSource) Ack(src dcp.StreamSource, _ dcp.MutationStream, replica string, seqno uint64) {
	src.(loopbackProducer).vb.AckReplica(replica, seqno)
}

// ApplyMap brings this process's data nodes to map m: the Rev check
// and install (a stale map is dropped), then one reconcile per local
// node for each vBucket whose chain differs from the map it replaces —
// re-applying a topology reconciles nothing — and a journal entry. A
// networked process names its one node self (its KV address) and feeds
// replicas through a socket src; in-process self is empty, every node
// goes by its own ID, and the call returns with each changed replica's
// link past its first open attempt, so topology calls still return
// with replication streaming (a remote open can take a dial timeout,
// so a member process does not wait). Applies are serialized.
func (c *Cluster) ApplyMap(bucket string, m *cmap.Map, self cmap.NodeID, src ReplicaSource) error {
	return c.applyMap(bucket, m, self, src, true)
}

// applyMap is ApplyMap; a rebalance that steps through its partitions
// one map each (stepVB) leaves the journal entry out.
func (c *Cluster) applyMap(bucket string, m *cmap.Map, self cmap.NodeID, src ReplicaSource, journal bool) error {
	c.applyMu.Lock()
	defer c.applyMu.Unlock()
	if c.left {
		return nil
	}
	prev, ok := c.topo.install(bucket, m)
	if !ok {
		return nil
	}
	type local struct {
		id cmap.NodeID // the node's name in m
		nb *nodeBucket
	}
	var locals []local
	for _, n := range c.Nodes() {
		nb, err := n.bucket(bucket)
		if err != nil {
			continue // dead, or not a data node
		}
		id := self
		if self == "" {
			id = n.id
		}
		locals = append(locals, local{id, nb})
	}
	changed := cmap.Changed(prev, m)
	var firstErr error
	for _, vb := range changed {
		// The mapped active goes first, so its replicas' links find their
		// source already promoted.
		active := m.Active(vb)
		for _, first := range []bool{true, false} {
			for _, l := range locals {
				if (l.id == active) != first {
					continue
				}
				if err := l.nb.reconcile(m, l.id, vb, src); err != nil && firstErr == nil {
					firstErr = err
				}
				if self == "" {
					l.nb.awaitLink(vb)
				}
			}
		}
	}
	if journal {
		e := events.New(events.Topology, events.SevInfo, "applied cluster map")
		e.Node, e.Bucket = string(self), bucket
		e.Fields = map[string]string{"rev": strconv.FormatInt(m.Rev, 10), "changed": strconv.Itoa(len(changed))}
		events.Default.Publish(e)
	}
	return firstErr
}

// Leave ends this process's part in a networked cluster: no further
// map is applied and every inbound replica link stops, so a member
// that left neither pulls from nor acks to its former peers.
func (c *Cluster) Leave() {
	c.applyMu.Lock()
	defer c.applyMu.Unlock()
	c.left = true
	for _, bucket := range c.BucketNames() {
		c.SeverReplication(bucket)
	}
}

// reconcile decides what this node's copy of vbID is under m — active,
// replica of the mapped active, or gone — and performs the transition.
// Re-applying a map is cheap: an active copy only has its durability
// ack set refreshed (consumers are attached once, at creation or
// promotion), and a live link to the same source is kept.
func (nb *nodeBucket) reconcile(m *cmap.Map, self cmap.NodeID, vbID int, src ReplicaSource) error {
	active := m.Active(vbID)
	switch {
	case active == "":
		// Partition lost cluster-wide; keep whatever copy we hold.
	case active == self:
		// Halt the inbound link before the takeover entry is written:
		// a link adopts its source's failover log, and must not do so
		// over the new branch.
		nb.stopLink(vbID)
		vb, err := nb.createVB(vbID, vbucket.Active)
		if err != nil {
			return err
		}
		if vb.State() != vbucket.Active {
			nb.promote(vb)
		}
		replicas := m.Replicas(vbID)
		names := make([]string, len(replicas))
		for i, r := range replicas {
			names[i] = string(r)
		}
		vb.SetReplicaSet(names)
	case m.HasReplica(vbID, self):
		vb, err := nb.createVB(vbID, vbucket.Replica)
		if err != nil {
			return err
		}
		if vb.State() != vbucket.Replica {
			// Demotion: the node's view indexes cover active copies only.
			nb.detachConsumers(vbID)
			vb.SetState(vbucket.Replica)
		}
		nb.pointLink(vb, active, self, src)
	default:
		nb.demoteAndDrop(vbID)
	}
	return nil
}

// promote flips a replica/pending copy to active and attaches the
// index consumers ("the cluster will promote one of the replica
// partitions to active status").
func (nb *nodeBucket) promote(vb *vbucket.VBucket) {
	// Failover-log append, consumer attach and state flip are one
	// promotion under nb.mu; the vbucket/dcp layers never call back into
	// core, so the lock order is acyclic. The flip comes last: ops reach
	// the copy without nb.mu (nodeBucket.vb reads published state), and
	// until it is Active it refuses them, so with its link halted nothing
	// writes between the takeover point read here and the consumers'
	// attach.
	nb.mu.Lock()
	defer nb.mu.Unlock()
	// Takeover: append a new (UUID, high-seqno) entry to the failover
	// log. Consumers that resumed past this point on the old active
	// branch get a rollback to here when they reattach (§4.1.1).
	highSeqno := vb.HighSeqno()       //couchvet:ignore lockblock -- atomic promotion; vbucket/dcp never re-enter core
	vb.Producer().Takeover(highSeqno) //couchvet:ignore lockblock -- atomic promotion; vbucket/dcp never re-enter core
	// Journal the takeover before reattaching consumers: a consumer
	// whose resume position lies past the takeover point rolls back
	// during the attach below, and the journal must show takeover →
	// rollback in causal order.
	e := events.New(events.VBucket, events.SevInfo, "vb takeover: replica promoted to active")
	e.Node = nb.nodeID
	e.Bucket = nb.bucketName
	e.VB = vb.ID
	e.Fields = map[string]string{"high_seqno": strconv.FormatUint(highSeqno, 10)}
	events.Default.Publish(e)
	nb.attachConsumersLocked(vb)
	vb.SetState(vbucket.Active) //couchvet:ignore lockblock -- atomic promotion; vbucket/dcp never re-enter core
}

// demoteAndDrop removes a vBucket from this node entirely (the map
// moved it away).
func (nb *nodeBucket) demoteAndDrop(vbID int) {
	nb.stopLink(vbID)
	nb.mu.Lock()
	vb, ok := nb.vbs.get(vbID)
	if ok {
		nb.vbs.drop(vbID)
	}
	nb.mu.Unlock()
	if !ok {
		return
	}
	vb.SetState(vbucket.Dead)
	nb.detachConsumers(vbID)
	vb.Close()
	nb.store.DropVB(vbID)
}

var errLinkHalted = errors.New("core: replica link halted")

// Reconnect backoff of a replica link whose source is unreachable.
const (
	linkBackoffMin = 50 * time.Millisecond
	linkBackoffMax = time.Second
)

// replicaLink is the inbound DCP stream feeding one replica (or
// pending) copy from the node holding the active.
type replicaLink struct {
	source cmap.NodeID
	stop   chan struct{}
	done   chan struct{}
	// opened closes after the first open attempt, whatever its outcome.
	opened chan struct{}

	// mu fences the local copy: the link writes to it (apply, failover
	// log adoption) only under mu with stopped unset. halt therefore
	// returns with nothing in flight and nothing to come, without
	// waiting for a goroutine that may sit in a seconds-long dial.
	mu      sync.Mutex
	stopped bool
	// stream is the open stream, if any; halt closes it, which is what
	// wakes a goroutine parked in its Next.
	stream dcp.MutationStream
}

func (l *replicaLink) halt() {
	l.mu.Lock()
	first, stream := !l.stopped, l.stream
	l.stopped = true
	l.mu.Unlock()
	if first {
		close(l.stop)
		if stream != nil {
			stream.Close()
		}
	}
}

// alive reports whether the link's goroutine is still running.
func (l *replicaLink) alive() bool {
	select {
	case <-l.done:
		return false
	default:
		return true
	}
}

// pointLink makes source the feed of the replica/pending copy vb. A
// live link to the same source is kept; anything else is halted and
// replaced.
func (nb *nodeBucket) pointLink(vb *vbucket.VBucket, source, self cmap.NodeID, src ReplicaSource) {
	nb.mu.Lock()
	old := nb.links[vb.ID]
	if old != nil && old.source == source && old.alive() {
		nb.mu.Unlock()
		return
	}
	l := &replicaLink{source: source, stop: make(chan struct{}), done: make(chan struct{}), opened: make(chan struct{})}
	nb.links[vb.ID] = l
	nb.bg.Add(1)
	nb.mu.Unlock()
	if old != nil {
		old.halt()
	}
	go nb.runLink(l, vb, string(self), src)
}

// awaitLink returns once vbID's link, if there is one, has made its
// first open attempt or exited. The in-process cluster calls it so a
// topology change returns with replication already streaming live, as
// its callers have always been able to assume; a process-cluster
// member does not, because a remote open can take a dial timeout.
func (nb *nodeBucket) awaitLink(vbID int) {
	nb.mu.Lock()
	l := nb.links[vbID]
	nb.mu.Unlock()
	if l != nil {
		select {
		case <-l.opened:
		case <-l.done:
		}
	}
}

// haltLinks halts and forgets every link of the bucket on this node.
func (nb *nodeBucket) haltLinks() {
	nb.mu.Lock()
	links := nb.links
	nb.links = make(map[int]*replicaLink)
	nb.mu.Unlock()
	for _, l := range links {
		l.halt()
	}
}

func (nb *nodeBucket) stopLink(vbID int) {
	nb.mu.Lock()
	l := nb.links[vbID]
	delete(nb.links, vbID)
	nb.mu.Unlock()
	if l != nil {
		l.halt()
	}
}

// runLink keeps one replica copy fed until the link is halted or the
// copy stops being a replica: resume at the copy's high seqno, adopt
// the source's failover log, apply, ack, and reconnect with backoff
// when the source goes away.
//
// The resume presents the source's own newest UUID, so the handshake
// rejects only when the source's history moves between the log fetch
// and the open; that bounce is journaled and the stream resumes at the
// returned point without rewinding the copy (DESIGN.md §5, known
// limitation).
func (nb *nodeBucket) runLink(l *replicaLink, vb *vbucket.VBucket, self string, rs ReplicaSource) {
	defer nb.bg.Done()
	defer close(l.done)
	backoff := linkBackoffMin
	for attempt := 0; ; attempt++ {
		select {
		case <-l.stop:
			return
		default:
		}
		if st := vb.State(); st != vbucket.Replica && st != vbucket.Pending {
			return
		}
		src, stream, err := nb.openLink(l, vb, self, rs)
		if attempt == 0 {
			close(l.opened)
		}
		if err != nil {
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
			case <-l.stop:
				t.Stop()
				return
			}
			backoff = min(backoff*2, linkBackoffMax)
			continue
		}
		backoff = linkBackoffMin
		for {
			batch, ok := stream.Next()
			if !ok || !l.apply(vb, batch) {
				break
			}
			// The ack is a high-watermark: one covers the batch, and a
			// ReplicateTo waiter sees it in one hop.
			rs.Ack(src, stream, self, batch[len(batch)-1].Seqno)
		}
		stream.Close()
	}
}

// apply applies one batch to the copy and reports whether the link is
// still running; a halt takes effect between two mutations.
func (l *replicaLink) apply(vb *vbucket.VBucket, batch []dcp.Mutation) bool {
	for _, m := range batch {
		l.mu.Lock()
		if l.stopped {
			l.mu.Unlock()
			return false
		}
		vb.ApplyReplica(m) //couchvet:ignore lockblock -- halt fence (see replicaLink.mu); vbucket never re-enters core
		l.mu.Unlock()
	}
	return true
}

// openLink performs the resume handshake against the link's source,
// following one rollback bounce, and has the copy adopt the source's
// failover log: if the copy is later promoted, consumers that resumed
// on the old active's branch present a (UUID, seqno) it can validate.
func (nb *nodeBucket) openLink(l *replicaLink, vb *vbucket.VBucket, self string, rs ReplicaSource) (dcp.StreamSource, dcp.MutationStream, error) {
	src, err := rs.Source(l.source, vb.ID)
	if err != nil {
		return nil, nil, err
	}
	name := "replica:" + self
	flog := src.FailoverLog()
	var uuid uint64
	if len(flog) > 0 {
		uuid = flog[len(flog)-1].UUID
	}
	from := vb.HighSeqno()
	stream, err := src.ResumeStream(name, uuid, from)
	var rb *dcp.RollbackError
	if errors.As(err, &rb) {
		e := events.New(events.FeedEvent, events.SevWarn, "replica stream rollback")
		e.Node, e.Bucket, e.VB = self, nb.bucketName, vb.ID
		e.Fields = map[string]string{
			"rollback_to": strconv.FormatUint(rb.Seqno, 10),
			"uuid":        strconv.FormatUint(rb.UUID, 10),
			"from_seqno":  strconv.FormatUint(from, 10),
		}
		events.Default.Publish(e)
		stream, err = src.ResumeStream(name, rb.UUID, rb.Seqno)
	}
	if err != nil {
		return nil, nil, err
	}
	l.mu.Lock()
	halted := l.stopped
	if !halted {
		l.stream = stream
		if len(flog) > 0 {
			vb.Producer().SetFailoverLog(flog) //couchvet:ignore lockblock -- halt fence (see replicaLink.mu); vbucket/dcp never re-enter core
		}
	}
	l.mu.Unlock()
	if halted {
		stream.Close()
		return nil, nil, errLinkHalted
	}
	return src, stream, nil
}
