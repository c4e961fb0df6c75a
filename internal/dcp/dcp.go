// Package dcp implements the Database Change Protocol (paper §4.3.2):
// "Couchbase has an internal Database Change Protocol (DCP) that is
// utilized to keep all of the different components in sync and to move
// data between the components at high speed. DCP lies at the heart of
// Couchbase Server and supports its memory-first architecture by
// decoupling potential I/O bottlenecks from many critical functions."
//
// A Producer exists per vBucket on the node holding a copy of that
// vBucket. Consumers — replicas, the view engine, the GSI projector,
// the FTS indexer, and XDCR — open named streams from a start sequence
// number. A stream first delivers a backfill snapshot (the deduplicated
// latest versions of documents past the start seqno, sourced from the
// cache/storage), then seamlessly switches to the live in-memory feed.
// Delivery is strictly seqno-ordered; consumers never observe a gap
// they cannot detect.
package dcp

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"couchgo/internal/events"
	"couchgo/internal/trace"
)

// ErrClosed is returned when operating on a closed producer or stream.
var ErrClosed = errors.New("dcp: closed")

// FailoverEntry is one branch of a vBucket's mutation history: the
// UUID minted when a copy took over as active, and the seqno at which
// that branch began. The newest entry is last; its UUID is the
// vBucket's current UUID.
type FailoverEntry struct {
	UUID  uint64 `json:"uuid"`
	Seqno uint64 `json:"seqno"`
}

// RollbackError is returned by ResumeStream when the consumer's
// (UUID, seqno) position lies on a branch of history this producer
// does not have: mutations past Seqno on the presented branch were
// never seen by the current lineage and must be rewound. The consumer
// rolls its state back to at most Seqno and re-streams.
type RollbackError struct {
	// UUID is the producer's current vBucket UUID, for the consumer's
	// next resume attempt.
	UUID uint64
	// Seqno is the highest seqno of the presented history that is also
	// part of this producer's lineage (the divergence point).
	Seqno uint64
}

func (e *RollbackError) Error() string {
	return fmt.Sprintf("dcp: rollback to seqno %d (vbucket uuid %d)", e.Seqno, e.UUID)
}

// uuidCounter mints process-unique vBucket UUIDs. Real DCP uses random
// 64-bit UUIDs; a counter gives the same uniqueness deterministically.
var uuidCounter atomic.Uint64

func nextUUID() uint64 { return uuidCounter.Add(1) }

// MutationStream is the consumer-side view of one open DCP stream: the
// one queue between a vBucket and an asynchronous consumer (Fig. 6),
// pulled a batch at a time by the consumer's own goroutine. *Stream
// implements it for the in-process path; the transport layer implements
// it over a socket so feed consumers resume via (UUID, seqno) across
// processes without knowing which side of a wire the producer lives on.
type MutationStream interface {
	// Next blocks until something is ready and returns everything that
	// is, in seqno order. The batch is the caller's until its next call
	// of Next: that call tells the producer the batch has been applied
	// and takes the slice back, clears it and queues into it again, so a
	// consumer that keeps a mutation copies it out (its Key and Value are
	// never written again and may be kept as they are). ok is false once
	// the stream or its producer has closed; one goroutine calls Next.
	Next() (batch []Mutation, ok bool)
	// StreamUUID is the vBucket UUID the stream was opened under — the
	// consumer records it alongside its applied seqno as resume state.
	StreamUUID() uint64
	// Close detaches the stream and wakes a blocked Next.
	Close()
}

// StreamSource is the producer-side seam feed consumers attach to:
// everything a resumable DCP consumer needs from "the copy of this
// vBucket, wherever it lives". *Producer implements it directly
// (loopback); the transport layer's remote producer implements it by
// speaking the memcproto DCP opcodes to the owning node.
type StreamSource interface {
	// ResumeStream reopens a named stream at a recorded (uuid, seqno)
	// position, validating it against the failover log; uuid 0 skips
	// validation (a fresh consumer, or an explicit from-scratch open).
	ResumeStream(name string, uuid, fromSeqno uint64) (MutationStream, error)
	// HighSeqno reports the highest seqno published so far, or why it
	// could not be read: a source out of reach is not an empty vBucket.
	HighSeqno() (uint64, error)
	// FailoverLog returns the vBucket's history branches, oldest first.
	FailoverLog() []FailoverEntry
}

var (
	_ StreamSource   = (*Producer)(nil)
	_ MutationStream = (*Stream)(nil)
)

// Mutation is one document change flowing through the protocol.
type Mutation struct {
	VB       int
	Key      string
	Value    []byte
	Seqno    uint64
	CAS      uint64
	RevSeqno uint64
	Flags    uint32
	Expiry   int64
	Deleted  bool
	// Trace, when non-nil, is the sampled trace of the originating
	// client write; downstream consumers (flusher, replicas, feeds)
	// attach their apply spans to it so the trace shows every
	// asynchronous hop. Backfill snapshots carry no trace.
	Trace *trace.Trace
}

// SnapshotSource provides deduplicated backfill state: every document
// (including tombstones) whose latest seqno is greater than
// fromExclusive, plus the seqno high-water mark of the snapshot. The
// vBucket layer implements this over the object-managed cache, falling
// back to the storage engine for evicted values.
type SnapshotSource interface {
	Snapshot(fromExclusive uint64) (items []Mutation, snapshotHigh uint64, err error)
}

// Producer fans one vBucket's mutation sequence out to streams.
type Producer struct {
	vb     int
	source SnapshotSource

	mu      sync.Mutex
	streams map[*Stream]struct{}
	high    uint64
	closed  bool
	// failover is the vBucket's failover log, oldest branch first. It
	// always has at least one entry; the last entry's UUID is current.
	failover []FailoverEntry
}

// NewProducer creates a producer for vb backed by the snapshot source.
// The fresh vBucket starts a new history branch at seqno 0.
func NewProducer(vb int, source SnapshotSource) *Producer {
	return &Producer{
		vb:       vb,
		source:   source,
		streams:  make(map[*Stream]struct{}),
		failover: []FailoverEntry{{UUID: nextUUID(), Seqno: 0}},
	}
}

// FailoverLog returns a copy of the failover log, oldest branch first.
func (p *Producer) FailoverLog() []FailoverEntry {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]FailoverEntry(nil), p.failover...)
}

// SetFailoverLog replaces the producer's failover log. Replica copies
// adopt the active's log so that, if they are later promoted, they can
// validate consumer histories recorded against the old active.
func (p *Producer) SetFailoverLog(entries []FailoverEntry) {
	if len(entries) == 0 {
		return
	}
	p.mu.Lock()
	p.failover = append([]FailoverEntry(nil), entries...)
	p.mu.Unlock()
}

// Takeover appends a new branch to the failover log: this copy became
// active with history up to seqno. Mutations another lineage assigned
// beyond seqno are not part of this producer's history, and consumers
// resuming past it will be told to roll back.
func (p *Producer) Takeover(seqno uint64) {
	p.mu.Lock()
	p.failover = append(p.failover, FailoverEntry{UUID: nextUUID(), Seqno: seqno})
	if seqno > p.high {
		p.high = seqno
	}
	p.mu.Unlock()
}

// Publish delivers a mutation to all open streams. The caller must
// invoke Publish in seqno order (the cache's OnMutate hook guarantees
// this). Publish never blocks on slow consumers: each stream has an
// unbounded in-memory queue, the protocol's "memory-first" decoupling.
func (p *Producer) Publish(m Mutation) {
	m.VB = p.vb
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	if m.Seqno > p.high {
		p.high = m.Seqno
	}
	for s := range p.streams {
		s.enqueueLive(m)
	}
}

// HighSeqno reports the highest seqno published so far; a local
// producer's never fails.
func (p *Producer) HighSeqno() (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.high, nil
}

// StreamLags reports items-remaining per open stream: the producer's
// high seqno minus the last seqno each consumer has applied (it came
// back for more) — the paper's §4.3.4 index-freshness metric,
// generalized to every DCP consumer. Seqnos are dense per vBucket, so
// the difference counts unapplied mutations.
func (p *Producer) StreamLags() map[string]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.streams) == 0 {
		return nil
	}
	out := make(map[string]uint64, len(p.streams))
	for s := range p.streams {
		var lag uint64
		if done := s.applied.Load(); p.high > done {
			lag = p.high - done
		}
		// Streams sharing a name (same consumer across reopen) keep
		// the worst lag. Caught-up streams still report an entry, so
		// a scrape sees lag 0 rather than a vanished series.
		if cur, ok := out[s.Name]; !ok || lag > cur {
			out[s.Name] = lag
		}
	}
	return out
}

// Close terminates the producer and all its streams.
func (p *Producer) Close() {
	p.mu.Lock()
	streams := make([]*Stream, 0, len(p.streams))
	for s := range p.streams {
		streams = append(streams, s)
	}
	p.closed = true
	p.streams = make(map[*Stream]struct{})
	p.mu.Unlock()
	for _, s := range streams {
		s.Close()
	}
}

// ResumeStream opens a named stream delivering every change after
// fromSeqno: first a backfill snapshot, then live mutations. The name
// identifies the consumer in stats. uuid is the vBucket UUID the
// consumer last streamed under and fromSeqno the last seqno it applied.
// The producer checks the pair against its failover log; if the
// consumer's branch diverged before fromSeqno — it holds mutations a
// failed-over active never saw — ResumeStream returns a *RollbackError
// carrying the seqno to rewind to. uuid 0 (a consumer with no history,
// replica bootstrap, an index build) trusts fromSeqno unvalidated.
func (p *Producer) ResumeStream(name string, uuid, fromSeqno uint64) (MutationStream, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	cur := p.failover[len(p.failover)-1].UUID
	if uuid != 0 && fromSeqno > 0 {
		branch := -1
		for i, e := range p.failover {
			if e.UUID == uuid {
				branch = i
				break
			}
		}
		switch {
		case branch < 0:
			// Unknown lineage entirely: nothing past 0 is trustworthy.
			p.mu.Unlock()
			publishRollbackRequired(p.vb, name, uuid, fromSeqno, 0)
			return nil, &RollbackError{UUID: cur, Seqno: 0}
		case branch < len(p.failover)-1:
			// The consumer's branch ended at the next entry's start
			// seqno; anything it applied beyond that was lost history.
			if upper := p.failover[branch+1].Seqno; fromSeqno > upper {
				p.mu.Unlock()
				publishRollbackRequired(p.vb, name, uuid, fromSeqno, upper)
				return nil, &RollbackError{UUID: cur, Seqno: upper}
			}
		}
	}
	s := &Stream{Name: name, UUID: cur, producer: p, taken: fromSeqno, opening: true}
	s.ready.L = &s.mu
	s.applied.Store(fromSeqno)
	p.streams[s] = struct{}{}
	p.mu.Unlock()

	// Snapshot after attaching to the live feed: anything published
	// between attach and scan is either in the snapshot or queued live
	// with a seqno above the snapshot watermark.
	items, high, err := p.source.Snapshot(fromSeqno)
	if err != nil {
		s.Close()
		return nil, err
	}
	// Existing data a fresh stream must backfill counts as lag, so the
	// producer's watermark covers the snapshot even before the first
	// live publish.
	p.mu.Lock()
	if high > p.high {
		p.high = high
	}
	p.mu.Unlock()
	s.mu.Lock()
	for _, m := range s.queue {
		if m.Seqno > high {
			items = append(items, m)
		}
	}
	s.queue, s.snapshotHigh, s.opening = items, high, false
	s.mu.Unlock()
	s.ready.Signal()
	return s, nil
}

// publishRollbackRequired journals a rejected resume: the consumer
// presented a (uuid, seqno) from a branch of history this producer
// does not share past rollbackTo.
func publishRollbackRequired(vb int, stream string, uuid, fromSeqno, rollbackTo uint64) {
	e := events.New(events.DCP, events.SevInfo, "stream resume rejected: rollback required")
	e.VB = vb
	e.Fields = map[string]string{
		"stream":      stream,
		"uuid":        strconv.FormatUint(uuid, 10),
		"from_seqno":  strconv.FormatUint(fromSeqno, 10),
		"rollback_to": strconv.FormatUint(rollbackTo, 10),
	}
	events.Default.Publish(e)
}

// MaxKeptBatch caps, in slots (~50 KiB), the slice a mutation queue (a
// MutationStream's, a flusher's) keeps for reuse: transport's
// maxPooledBufBytes rule.
const MaxKeptBatch = 512

// Stream is one consumer's ordered view of a vBucket's changes: one
// unbounded queue the producer appends to and the consumer's Next
// empties. UUID is the vBucket UUID the stream was opened under; a
// resumable consumer records it alongside its applied seqno.
type Stream struct {
	Name     string
	UUID     uint64
	producer *Producer

	mu sync.Mutex
	// ready is signalled when queue gains its first entry, the snapshot
	// lands or the stream closes.
	ready sync.Cond
	// queue is the backfill followed by live mutations past
	// snapshotHigh. While opening, it holds the live mutations published
	// since the stream attached, and Next waits for the snapshot.
	queue        []Mutation
	opening      bool
	snapshotHigh uint64
	closed       bool
	// taken is the last seqno Next handed out.
	taken uint64
	// lent is the batch Next handed out last: on its next call it is
	// cleared and becomes the queue, so the stream's two slices take
	// turns and none is allocated per batch.
	lent []Mutation

	// applied is the last seqno the consumer is done with: taken as of
	// its latest call of Next. The producer reads it to compute lag.
	applied atomic.Uint64
}

// StreamUUID returns the vBucket UUID the stream was opened under
// (the UUID field, behind the MutationStream seam).
func (s *Stream) StreamUUID() uint64 { return s.UUID }

func (s *Stream) enqueueLive(m Mutation) {
	s.mu.Lock()
	// A mutation at or below the snapshot high is already in the backfill.
	if !s.closed && (s.opening || m.Seqno > s.snapshotHigh) {
		s.queue = append(s.queue, m)
	}
	s.mu.Unlock()
	s.ready.Signal()
}

// Next implements MutationStream.
func (s *Stream) Next() ([]Mutation, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied.Store(s.taken)
	// A slice that grew for a backfill or a burst is left to the GC; one
	// that is kept is cleared, so its recycled slots pin no key or value.
	if cap(s.lent) > MaxKeptBatch {
		s.lent = nil
	}
	clear(s.lent)
	for !s.closed && (s.opening || len(s.queue) == 0) {
		s.ready.Wait()
	}
	if s.closed {
		return nil, false
	}
	s.queue, s.lent = s.lent[:0], s.queue
	s.taken = s.lent[len(s.lent)-1].Seqno
	return s.lent, true
}

// Close detaches the stream from the producer; what it still queues is
// dropped, and the consumer resumes elsewhere from what it applied.
func (s *Stream) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.queue = nil
	s.mu.Unlock()
	s.ready.Signal()
	s.producer.mu.Lock()
	delete(s.producer.streams, s)
	s.producer.mu.Unlock()
}
