// Package xdcr implements Cross Datacenter Replication (paper §4.6):
// "XDCR provides a way to replicate active data to multiple,
// geographically diverse datacenters ... XDCR is also a consumer of the
// internal DCP stream, as it uses the DCP stream to push in-memory
// document mutations to the destination cluster."
//
// Properties reproduced from the paper:
//
//   - Per-bucket setup, with optional filtered replication "based on a
//     regular expression on the document ID".
//   - Cluster-topology awareness: the source streams from whichever
//     node currently holds each active vBucket, and the destination
//     apply routes by key through the destination's own cluster map —
//     the two clusters may have different node counts and partitioning.
//   - Eventual consistency with deterministic conflict resolution
//     (§4.6.1): most-updates (RevSeqno) wins, metadata (CAS) tiebreak,
//     applied identically on both sides, so bidirectional replication
//     converges to the same winner.
//
// DCP consumption goes through the shared feed layer (internal/feed):
// a topology loop resolves each vBucket's current active producer and
// (re)attaches the replicator's feed to it; the feed owns stream
// lifecycle, resume seqnos, and failover-log rollback. On rollback the
// replicator keeps its resume point — the destination's conflict
// resolution deduplicates any re-sent mutations.
package xdcr

import (
	"context"
	"fmt"
	"regexp"
	"sync"
	"sync/atomic"
	"time"

	"couchgo/internal/core"
	"couchgo/internal/dcp"
	"couchgo/internal/events"
	"couchgo/internal/feed"
	"couchgo/internal/metrics"
	"couchgo/internal/trace"
)

// Options configure one replication.
type Options struct {
	// FilterExpr, when non-empty, is a regular expression on document
	// IDs; only matching documents replicate.
	FilterExpr string
}

// retryInterval separates topology re-resolution passes.
const retryInterval = 20 * time.Millisecond

// A send the destination failed is retried after a backoff that
// doubles from minSendBackoff up to maxSendBackoff.
const (
	minSendBackoff = time.Millisecond
	maxSendBackoff = 100 * time.Millisecond
)

// mSendRetries counts sends the destination failed and the replicator
// made again.
var mSendRetries = metrics.Default.Counter("couchgo_xdcr_send_retries_total")

// Replicator pushes one source bucket's mutations to a destination
// cluster's bucket.
type Replicator struct {
	source       *core.Cluster
	sourceBucket string
	dest         *core.Client
	filter       *regexp.Regexp
	nvb          int
	feed         *feed.Feed

	mu      sync.Mutex
	stopped bool
	stopCh  chan struct{}
	wg      sync.WaitGroup

	// Stats.
	sent     atomic.Int64
	applied  atomic.Int64
	rejected atomic.Int64 // lost conflict resolution at the destination
	filtered atomic.Int64
}

// Start begins replicating source/sourceBucket into the bucket dest
// serves.
func Start(source *core.Cluster, sourceBucket string, dest *core.Client, opts Options) (*Replicator, error) {
	nvb, err := source.NumVBuckets(sourceBucket)
	if err != nil {
		return nil, err
	}
	r := &Replicator{
		source:       source,
		sourceBucket: sourceBucket,
		dest:         dest,
		nvb:          nvb,
		stopCh:       make(chan struct{}),
	}
	if opts.FilterExpr != "" {
		re, err := regexp.Compile(opts.FilterExpr)
		if err != nil {
			return nil, err
		}
		r.filter = re
	}
	r.feed = feed.New("xdcr", "xdcr", r)
	r.wg.Add(1)
	go r.topologyLoop()
	e := events.New(events.XDCR, events.SevInfo, "replication started")
	e.Bucket = sourceBucket
	e.Service = "xdcr"
	e.Fields = map[string]string{"dest_bucket": dest.Bucket(), "filter": opts.FilterExpr}
	events.Default.Publish(e)
	return r, nil
}

// topologyLoop keeps the feed attached to each vBucket's current
// active producer: failover/rebalance close producer streams, the feed
// drain exits, and the next pass re-resolves and reattaches on the new
// active, resuming from the recorded (uuid, seqno).
func (r *Replicator) topologyLoop() {
	defer r.wg.Done()
	t := time.NewTicker(retryInterval)
	defer t.Stop()
	for {
		for vb := 0; vb < r.nvb; vb++ {
			p, err := r.source.VBProducer(r.sourceBucket, vb)
			if err != nil {
				continue // vBucket has no alive active right now
			}
			// Attach is idempotent for a live unchanged producer;
			// errors (producer closed under us mid-pass) retry on the
			// next tick.
			_ = r.feed.Attach(vb, p)
		}
		select {
		case <-r.stopCh:
			return
		case <-t.C:
		}
	}
}

// Apply implements feed.Consumer: push a batch of mutations to the
// destination, one at a time.
func (r *Replicator) Apply(_ int, batch []dcp.Mutation) {
	for _, m := range batch {
		r.send(m)
	}
}

// send pushes one mutation to the destination, retrying until it lands
// or the replication stops: the feed records the batch as applied once
// Apply returns, so a mutation given up on would never be sent again.
func (r *Replicator) send(m dcp.Mutation) {
	if r.filter != nil && !r.filter.MatchString(m.Key) {
		r.filtered.Add(1)
		return
	}
	r.sent.Add(1)
	// When the mutation carries its originating trace, the cross-cluster
	// hop rides along: the destination's kv:xdcr span lands under an
	// xdcr:send span in the source write's trace.
	ctx := context.Background()
	if m.Trace != nil {
		sp := m.Trace.StartSpan("xdcr:send")
		sp.Annotate("key", m.Key)
		defer sp.End()
		ctx = trace.ContextWith(ctx, sp)
	}
	applied, err := r.dest.XDCRApply(ctx, m.Key, m.Value, m.Deleted, m.CAS, m.RevSeqno, m.Flags, m.Expiry)
	// The destination's conflict resolution makes a re-send of a
	// mutation that did land harmless.
	for backoff := minSendBackoff; err != nil; backoff = min(2*backoff, maxSendBackoff) {
		mSendRetries.Inc()
		select {
		case <-r.stopCh:
			return
		case <-time.After(backoff):
		}
		applied, err = r.dest.XDCRApply(ctx, m.Key, m.Value, m.Deleted, m.CAS, m.RevSeqno, m.Flags, m.Expiry)
	}
	if applied {
		r.applied.Add(1)
	} else {
		r.rejected.Add(1)
	}
}

// Rollback implements feed.Rollbacker: XDCR keeps its position — the
// destination's conflict resolution (RevSeqno/CAS) deduplicates any
// mutations re-sent from the rollback point.
func (r *Replicator) Rollback(_ int, toSeqno uint64) uint64 {
	return toSeqno
}

// Stop halts replication. Mutations already queued may still land.
func (r *Replicator) Stop() {
	r.mu.Lock()
	if r.stopped {
		r.mu.Unlock()
		return
	}
	r.stopped = true
	close(r.stopCh)
	r.mu.Unlock()
	r.wg.Wait()
	r.feed.Close()
	st := r.Stats()
	e := events.New(events.XDCR, events.SevInfo, "replication stopped")
	e.Bucket = r.sourceBucket
	e.Service = "xdcr"
	e.Fields = map[string]string{
		"sent":    fmt.Sprintf("%d", st.Sent),
		"applied": fmt.Sprintf("%d", st.Applied),
	}
	events.Default.Publish(e)
}

// Stats reports replication counters.
type Stats struct {
	Sent     int64
	Applied  int64
	Rejected int64
	Filtered int64
}

// Stats returns a snapshot of the counters.
func (r *Replicator) Stats() Stats {
	return Stats{
		Sent:     r.sent.Load(),
		Applied:  r.applied.Load(),
		Rejected: r.rejected.Load(),
		Filtered: r.filtered.Load(),
	}
}
