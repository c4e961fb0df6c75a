// Package feed is the shared DCP-consumer layer (paper §4.4): every
// secondary service — GSI projector, views, FTS, analytics, XDCR — is
// a DCP consumer, and the value of DCP is precisely its shared
// semantics: ordered per-vBucket delivery, snapshot/backfill handoff,
// and failure recovery via failover logs and rollback. Rather than
// each service carrying its own producer/stream maps and drain loops,
// a service implements Consumer (and usually Rollbacker) and a Feed
// owns everything else:
//
//   - per-vBucket producer attachment and stream lifecycle,
//   - resume state: the (vBucket UUID, seqno) position of the last
//     applied mutation, carried across producer changes so failover
//     and rebalance re-attachments resume rather than rebuild,
//   - rollback: a resume the producer rejects (stale branch of
//     history) rewinds the consumer via Rollback before re-streaming,
//   - a drain loop that pulls batches and counts the deep ones,
//   - the consistency barrier: Wait blocks a reader until that same
//     applied-seqno vector covers the data service's high seqnos
//     (request_plus, stale=false, FTS and analytics read-your-writes).
//
// Feed metrics are exported through metrics.Default per service:
// couchgo_feed_mutations_total, couchgo_feed_rollbacks_total,
// couchgo_feed_stalls_total, the couchgo_feed_buffer_high_watermark
// gauge (the largest batch a drain has pulled per service — how far
// behind the consumer got), and
// the couchgo_feed_wait_seconds histogram (how long consistent reads
// blocked in Wait).
//
// Mutations carrying a sampled trace gain a per-hop apply span, and a
// rollback attaches its span to the trace of the last mutation the
// consumer applied — so a KV write's trace shows both its index-apply
// hop and, after a failover onto divergent history, the rollback that
// un-applied it.
package feed

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"couchgo/internal/dcp"
	"couchgo/internal/events"
	"couchgo/internal/metrics"
	"couchgo/internal/trace"
)

// ErrClosed is returned when attaching to a closed feed or hub.
var ErrClosed = errors.New("feed: closed")

// Consumer applies one vBucket's mutations in seqno order. Apply is
// called from the feed's drain goroutine for that vBucket; different
// vBuckets may apply concurrently.
type Consumer interface {
	Apply(vb int, m dcp.Mutation)
}

// Rollbacker is implemented by consumers that can rewind a vBucket's
// state to a seqno. Rollback must discard every applied mutation with
// a seqno greater than toSeqno and return the seqno it actually
// rewound to (at most toSeqno; 0 means "discarded the partition",
// after which the feed re-streams from scratch). Consumers that do
// not implement it are restarted from seqno 0 on rollback, which is
// only safe if re-applying history removes stale state — partition
// wipes via Rollback are the reliable path.
type Rollbacker interface {
	Rollback(vb int, toSeqno uint64) uint64
}

// Config tunes one feed.
type Config struct {
	// Service labels the feed's metrics (one label value per consumer
	// service: "gsi", "views", "fts", "analytics", "xdcr"). Defaults
	// to the feed name.
	Service string
}

// stallBatch is the backlog that counts as a stall: a drain that comes
// back to find more than this many mutations waiting has fallen behind.
const stallBatch = 64

// Feed connects one Consumer to any number of vBucket producers,
// surviving producer changes (failover, rebalance) via resume state
// and the DCP failover log.
type Feed struct {
	name     string
	service  string
	consumer Consumer

	mMutations *metrics.Counter
	mRollbacks *metrics.Counter
	mStalls    *metrics.Counter
	mHighWater *metrics.Gauge
	// mStalled counts drain goroutines currently working through a
	// stall-sized batch — nonzero means a consumer is behind *right now*,
	// which is what the health watchdog ages (the stall counter only
	// says a stall began, not that it is ongoing).
	mStalled *metrics.Gauge
	// mWait times the Waits that actually blocked.
	mWait *metrics.Histogram
	// waiters counts Waits in their slow path. A drain reads it after
	// every seqno store and pays for a wake-up only when it is nonzero,
	// so a feed nobody waits on costs one atomic load per mutation.
	waiters atomic.Int32

	// opMu serializes Attach/Detach/Close so stream replacement and
	// drain shutdown never interleave.
	opMu sync.Mutex

	mu     sync.Mutex
	closed bool
	vbs    map[int]*vbFeed
	// wake is closed (and replaced) to wake every blocked Wait.
	wake chan struct{}
}

// vbFeed is one vBucket's attachment state.
type vbFeed struct {
	producer dcp.StreamSource
	stream   dcp.MutationStream
	// uuid is the vBucket UUID the stream was opened under and seqno
	// the last mutation handed to the consumer — together the resume
	// position presented to the next producer.
	uuid  uint64
	seqno atomic.Uint64
	// done closes when the drain goroutine has exited (no more Apply
	// calls for this vBucket).
	done chan struct{}
	// lastTrace is the trace of the last mutation handed to the
	// consumer. Written only by the drain goroutine; read after its
	// exit (close(done) orders the accesses) to attach rollback spans
	// to the originating mutation's trace.
	lastTrace *trace.Trace
}

// New creates a feed delivering to c. The name becomes the DCP stream
// name on every attached producer.
func New(name string, c Consumer, cfg Config) *Feed {
	if cfg.Service == "" {
		cfg.Service = name
	}
	return &Feed{
		name:       name,
		service:    cfg.Service,
		consumer:   c,
		mMutations: metrics.Default.Counter("couchgo_feed_mutations_total", "service", cfg.Service),
		mRollbacks: metrics.Default.Counter("couchgo_feed_rollbacks_total", "service", cfg.Service),
		mStalls:    metrics.Default.Counter("couchgo_feed_stalls_total", "service", cfg.Service),
		mHighWater: metrics.Default.Gauge("couchgo_feed_buffer_high_watermark", "service", cfg.Service),
		mStalled:   metrics.Default.Gauge("couchgo_feed_stalled", "service", cfg.Service),
		mWait:      metrics.Default.Histogram("couchgo_feed_wait_seconds", "service", cfg.Service),
		wake:       make(chan struct{}),
	}
}

// Name returns the feed (and stream) name.
func (f *Feed) Name() string { return f.name }

// Attach connects the feed to a vBucket's producer, resuming from the
// recorded (UUID, seqno) position. Re-attaching the same producer
// while its drain is live is a no-op, so reconciliation can call it
// idempotently. A changed producer — the vBucket moved or failed over
// — stops the old drain first, then resumes on the new producer; if
// the producer rejects the resume position (stale branch of history),
// the consumer is rolled back and the stream reopened from the
// rollback point. The producer may be an in-process *dcp.Producer or a
// transport-layer remote source — the feed only sees the seam.
func (f *Feed) Attach(vb int, p dcp.StreamSource) error {
	f.opMu.Lock()
	defer f.opMu.Unlock()

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return ErrClosed
	}
	cur := f.vbs[vb]
	f.mu.Unlock()

	// opMu is the lifecycle serializer and is *designed* to be held
	// across stream teardown and resume: drain goroutines never take
	// it, and the dcp layer never calls back into feed, so waiting on
	// a drain to exit here cannot cycle.
	var uuid, seqno uint64
	if cur != nil {
		if cur.producer == p && drainAlive(cur) {
			return nil
		}
		cur.stream.Close() //couchvet:ignore lockblock -- opMu lifecycle serializer; dcp never re-enters feed
		<-cur.done         //couchvet:ignore lockblock -- drain exits on stream close; it never takes opMu
		uuid = cur.uuid
		seqno = cur.seqno.Load()
	}

	s, err := p.ResumeStream(f.name, uuid, seqno) //couchvet:ignore lockblock -- opMu lifecycle serializer; dcp never re-enters feed
	var rb *dcp.RollbackError
	if errors.As(err, &rb) {
		f.mRollbacks.Inc()
		// The rollback belongs to the trace of the last mutation this
		// consumer applied — that write (or one before it) is being
		// un-applied as a stale branch of history.
		var rsp *trace.Span
		if cur != nil && cur.lastTrace != nil {
			rsp = cur.lastTrace.StartSpan("feed:rollback")             //couchvet:ignore lockblock -- trace ops take only the trace's own mutex, never block
			rsp.Annotate("service", f.service)                         //couchvet:ignore lockblock -- trace ops take only the trace's own mutex, never block
			rsp.Annotate("vb", strconv.Itoa(vb))                       //couchvet:ignore lockblock -- trace ops take only the trace's own mutex, never block
			rsp.Annotate("to_seqno", strconv.FormatUint(rb.Seqno, 10)) //couchvet:ignore lockblock -- trace ops take only the trace's own mutex, never block
		}
		to := rb.Seqno
		// Rewind the shared vector before un-applying: cur stays in vbs
		// until the rewound vbFeed replaces it, and a Wait arriving in
		// between must block through the re-stream, not read the
		// pre-rollback seqno over an emptied partition.
		if cur != nil {
			cur.seqno.Store(0)
		}
		if r, ok := f.consumer.(Rollbacker); ok {
			if got := r.Rollback(vb, rb.Seqno); got < to {
				to = got
			}
		} else {
			to = 0
		}
		if rsp != nil {
			rsp.Annotate("rewound_to", strconv.FormatUint(to, 10)) //couchvet:ignore lockblock -- trace ops take only the trace's own mutex, never block
			rsp.End()                                              //couchvet:ignore lockblock -- trace ops take only the trace's own mutex, never block
		}
		// Journal the rollback, linked to the trace of the last applied
		// mutation — the same trace the span above landed in — so an
		// operator can jump from the event to the write it un-applied.
		re := events.New(events.FeedEvent, events.SevWarn, "feed rollback: stale branch of history")
		re.Service = f.service
		re.VB = vb
		re.Fields = map[string]string{
			"to_seqno":   strconv.FormatUint(rb.Seqno, 10),
			"rewound_to": strconv.FormatUint(to, 10),
		}
		if cur != nil && cur.lastTrace != nil {
			re.TraceID = cur.lastTrace.ID
		}
		events.Default.Publish(re)
		s, err = p.ResumeStream(f.name, 0, to) //couchvet:ignore lockblock -- opMu lifecycle serializer; dcp never re-enters feed
		seqno = to
	}
	if err != nil {
		return err
	}

	vf := &vbFeed{producer: p, stream: s, uuid: s.StreamUUID(), done: make(chan struct{})} //couchvet:ignore lockblock -- StreamUUID is a field read behind the stream seam; never blocks
	vf.seqno.Store(seqno)

	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		s.Close() //couchvet:ignore lockblock -- opMu lifecycle serializer; dcp never re-enters feed
		return ErrClosed
	}
	if f.vbs == nil {
		f.vbs = make(map[int]*vbFeed)
	}
	f.vbs[vb] = vf
	// A resumed or rewound position may already cover a parked Wait and
	// no further mutation need follow to wake it.
	f.wakeLocked()
	f.mu.Unlock()

	go f.drain(vb, vf)
	return nil
}

func drainAlive(vf *vbFeed) bool {
	select {
	case <-vf.done:
		return false
	default:
		return true
	}
}

// drain pulls the stream a batch at a time into the consumer. A batch
// is everything published since the drain last came back, so its size
// is how far behind the consumer is: more than stallBatch counts a
// stall for as long as the batch takes to apply. Nothing here bounds
// memory or slows the publisher; the stream's queue is unbounded by the
// memory-first contract.
func (f *Feed) drain(vb int, vf *vbFeed) {
	defer close(vf.done)
	for {
		batch, ok := vf.stream.Next()
		if !ok {
			return
		}
		f.mHighWater.SetMax(int64(len(batch)))
		stalled := len(batch) > stallBatch
		if stalled {
			f.mStalls.Inc()
			e := events.New(events.FeedEvent, events.SevWarn, "feed stall: consumer backpressure")
			e.Service = f.service
			e.VB = vb
			e.Fields = map[string]string{
				"batch":          strconv.Itoa(len(batch)),
				"high_watermark": strconv.FormatInt(f.mHighWater.Value(), 10),
			}
			events.Default.Publish(e)
			f.mStalled.Add(1)
		}
		for _, m := range batch {
			if m.Trace != nil {
				sp := m.Trace.StartSpan("feed:apply")
				sp.Annotate("service", f.service)
				sp.Annotate("vb", strconv.Itoa(vb))
				sp.Annotate("seqno", strconv.FormatUint(m.Seqno, 10))
				f.consumer.Apply(vb, m)
				sp.End()
			} else {
				f.consumer.Apply(vb, m)
			}
			vf.lastTrace = m.Trace
			vf.seqno.Store(m.Seqno)
			if f.waiters.Load() != 0 {
				f.mu.Lock()
				f.wakeLocked()
				f.mu.Unlock()
			}
			f.mMutations.Inc()
		}
		if stalled {
			f.mStalled.Add(-1)
		}
	}
}

// Wait is the one consistency barrier of every DCP-fed index: it
// returns nil once each vBucket in vector has an applied seqno at least
// the wanted one (a wanted seqno of 0 is always met). A vBucket that is
// not attached counts as seqno 0, so the wait blocks until it is
// attached and streamed; a rollback rewinds the vBucket's seqno and the
// wait continues through the re-stream. It returns ctx's error when ctx
// is done before the vector is met and ErrClosed when the feed closes.
// A vector that is already met wins over a ctx that is already done:
// ctx bounds the waiting, and work that needs none (the first page of
// every request_plus scan over a caught-up index) is not failed for it.
// An empty vector asks for nothing: a read that requested no
// consistency returns at once, without touching the feed's lock and
// whatever the feed's state.
func (f *Feed) Wait(ctx context.Context, vector map[int]uint64) error {
	if len(vector) == 0 {
		return nil
	}
	if ok, _, err := f.covers(vector); ok || err != nil {
		return err
	}
	defer f.mWait.ObserveSince(time.Now())
	// Register before re-checking: a drain that stored its seqno too
	// early to see the registration is seen by the re-check, and one
	// that stored later sees the registration and closes wake.
	f.waiters.Add(1)
	defer f.waiters.Add(-1)
	for {
		ok, wake, err := f.covers(vector)
		if ok || err != nil {
			return err
		}
		select {
		case <-wake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// covers reports whether the applied vector has reached want and, if
// not, the channel the next wake-up closes.
func (f *Feed) covers(want map[int]uint64) (bool, <-chan struct{}, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return false, nil, ErrClosed
	}
	for vb, seqno := range want {
		if vf := f.vbs[vb]; seqno > 0 && (vf == nil || vf.seqno.Load() < seqno) {
			return false, f.wake, nil
		}
	}
	return true, nil, nil
}

// wakeLocked wakes every blocked Wait; callers hold f.mu.
func (f *Feed) wakeLocked() {
	close(f.wake)
	f.wake = make(chan struct{})
}

// Detach disconnects a vBucket and forgets its resume state. The next
// Attach for the vBucket streams from scratch.
func (f *Feed) Detach(vb int) {
	f.opMu.Lock()
	defer f.opMu.Unlock()
	f.mu.Lock()
	vf := f.vbs[vb]
	delete(f.vbs, vb)
	f.mu.Unlock()
	if vf != nil {
		vf.stream.Close() //couchvet:ignore lockblock -- opMu lifecycle serializer; dcp never re-enters feed
		<-vf.done         //couchvet:ignore lockblock -- drain exits on stream close; it never takes opMu
	}
}

// Close stops every drain. Apply is never called after Close returns.
func (f *Feed) Close() {
	f.opMu.Lock()
	defer f.opMu.Unlock()
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	f.wakeLocked()
	vbs := f.vbs
	f.vbs = nil
	f.mu.Unlock()
	for _, vf := range vbs {
		vf.stream.Close() //couchvet:ignore lockblock -- opMu lifecycle serializer; dcp never re-enters feed
		<-vf.done         //couchvet:ignore lockblock -- drain exits on stream close; it never takes opMu
	}
}

// Processed returns the per-vBucket seqno of the last mutation handed
// to the consumer: a copy of the vector Wait blocks on.
func (f *Feed) Processed() map[int]uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[int]uint64, len(f.vbs))
	for vb, vf := range f.vbs {
		out[vb] = vf.seqno.Load()
	}
	return out
}

// Stat describes one feed for the REST stats surface.
type Stat struct {
	Service string `json:"service"`
	Name    string `json:"name"`
	// Node is set for per-node feeds (views); empty for cluster-level
	// services.
	Node      string         `json:"node,omitempty"`
	VBuckets  int            `json:"vbuckets"`
	Processed map[int]uint64 `json:"processed,omitempty"`
}
