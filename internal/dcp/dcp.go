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
	"slices"
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

// MutationStream is the consumer-side view of one open DCP stream: an
// asynchronous consumer's reader of a vBucket's log (Fig. 6), pulled a
// batch at a time by the consumer's own goroutine. *Stream
// implements it for the in-process path; the transport layer implements
// it over a socket so feed consumers resume via (UUID, seqno) across
// processes without knowing which side of a wire the producer lives on.
type MutationStream interface {
	// Next blocks until something is ready and returns everything that
	// is, in seqno order. The batch is the caller's until its next call
	// of Next: that call tells the producer the batch has been applied
	// and takes the slice back, clears it and copies into it again, so a
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

// ChunkLen is the number of entries in one chunk of a producer's log.
const ChunkLen = 128

// chunk is a run of the log. Publish writes slots[n], then stores n+1:
// a reader that loaded n reads the slots below it.
type chunk struct {
	base  uint64 // the log position of slots[0]
	n     atomic.Int64
	next  atomic.Pointer[chunk]
	slots [ChunkLen]Mutation
}

// Cursor is one reader's place in the log, slots[i] of chunk c, which
// only that reader moves: a stream's, or a vBucket flusher's. pin, up
// to where it has handed back what it read, and done are guarded by mu.
type Cursor struct {
	p      *Producer
	stream *Stream // nil for a flusher's
	c      *chunk
	i      int
	pin    uint64
	done   bool // a stream is closed, a flusher's cursor stopped
}

func (c *Cursor) at() uint64 { return c.c.base + uint64(c.i) }

// ready reports whether an entry is ready, stepping off a full chunk.
func (c *Cursor) ready() bool {
	if next := c.c.next.Load(); c.i == ChunkLen && next != nil {
		c.c, c.i = next, 0
	}
	return int64(c.i) < c.c.n.Load()
}

// run takes up to max ready entries of c's chunk.
func (c *Cursor) run(max int) []Mutation {
	end := min(int(c.c.n.Load()), c.i+max)
	r := c.c.slots[c.i:end]
	c.i = end
	return r
}

// Producer keeps one vBucket's mutation log, Fig. 6's one queue: chunks
// appended to once per mutation, read by the flusher and every stream
// through their own cursor.
type Producer struct {
	vb     int
	source SnapshotSource

	// tail is the chunk Publish appends to, spare one every cursor has
	// passed, for it to reuse. readers counts the attached cursors, and
	// parked those waiting on wake.
	tail, spare     atomic.Pointer[chunk]
	high            atomic.Uint64
	readers, parked atomic.Int32

	mu      sync.Mutex
	wake    sync.Cond
	cursors []*Cursor
	// cleared is the first entry not cleared, at or below every pin; its
	// chunk is nil while no cursor is attached.
	cleared Cursor
	closed  bool
	// failover is the vBucket's failover log, oldest branch first. It
	// always has at least one entry; the last entry's UUID is current.
	failover []FailoverEntry
}

// NewProducer creates a producer for vb backed by the snapshot source.
// The fresh vBucket starts a new history branch at seqno 0.
func NewProducer(vb int, source SnapshotSource) *Producer {
	p := &Producer{vb: vb, source: source, failover: []FailoverEntry{{UUID: nextUUID(), Seqno: 0}}}
	p.wake.L = &p.mu
	p.tail.Store(new(chunk))
	return p
}

// raise stores v in w if it is higher.
func raise(w *atomic.Uint64, v uint64) {
	for h := w.Load(); v > h && !w.CompareAndSwap(h, v); h = w.Load() {
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
	p.mu.Unlock()
	raise(&p.high, seqno)
}

// Publish appends a mutation to the log, after Close too. Calls are
// serialised and in seqno order, as the cache's OnMutate hook makes
// them. It never waits on a reader, the protocol's "memory-first"
// decoupling, and locks only to wake a parked one.
func (p *Producer) Publish(m Mutation) {
	m.VB = p.vb
	raise(&p.high, m.Seqno)
	t := p.tail.Load()
	i := t.n.Load()
	if i == ChunkLen {
		next := p.spare.Swap(nil)
		if next == nil {
			next = new(chunk)
		}
		next.base = t.base + ChunkLen
		next.n.Store(0)
		next.next.Store(nil)
		t.next.Store(next)
		p.tail.Store(next)
		t, i = next, 0
	}
	// An entry no cursor is attached to read is left unwritten: a stream
	// attaching meanwhile reads it as seqno 0, which its snapshot covers.
	if p.readers.Load() > 0 {
		t.slots[i] = m
	}
	t.n.Store(i + 1)
	if p.parked.Load() > 0 {
		p.mu.Lock()
		p.wake.Broadcast()
		p.mu.Unlock()
	}
}

// appended is the log position past its last entry.
func (p *Producer) appended() uint64 {
	t := p.tail.Load()
	return t.base + uint64(t.n.Load())
}

// attach adds c at the log's end. Runs under mu, as do the three below.
func (p *Producer) attach(c *Cursor) *Cursor {
	t := p.tail.Load()
	c.p, c.c, c.i = p, t, int(t.n.Load())
	if c.pin = c.at(); len(p.cursors) == 0 {
		p.cleared = *c
	}
	p.cursors = append(p.cursors, c)
	p.readers.Add(1)
	return c
}

// detach takes c out of the log, and c lets go of its chunk.
func (p *Producer) detach(c *Cursor) {
	c.c, c.done = nil, true
	p.cursors = slices.DeleteFunc(p.cursors, func(x *Cursor) bool { return x == c })
	p.readers.Add(-1)
	p.release(nil)
	p.wake.Broadcast()
}

// release hands back what c read, and clears what every cursor passed,
// so a chunk a cursor stands in pins no key, value or trace; a chunk
// every cursor is past the end of becomes the spare.
func (p *Producer) release(c *Cursor) {
	if c != nil {
		c.pin = c.at()
	}
	low := p.appended()
	for _, c := range p.cursors {
		low = min(low, c.pin)
	}
	for k := &p.cleared; k.c != nil && k.at() < low; {
		end := int(min(ChunkLen, low-k.c.base))
		clear(k.c.slots[k.i:end])
		next := k.c.next.Load()
		if k.i = end; next == nil || low <= next.base {
			break
		}
		p.spare.Store(k.c)
		k.c, k.i = next, 0
	}
	if len(p.cursors) == 0 {
		p.cleared.c = nil
	}
}

// await parks c's reader until an append or a detach; the caller checks
// again.
func (p *Producer) await(c *Cursor) {
	p.parked.Add(1)
	if !c.ready() && !c.done {
		p.wake.Wait()
	}
	p.parked.Add(-1)
}

// NewCursor attaches a cursor at the log's end, before the first
// Publish: one attached later may read an entry Publish left unwritten.
func (p *Producer) NewCursor() *Cursor {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.attach(new(Cursor))
}

// Read gives back what the last Read handed out, waits for an entry,
// and hands fn the ready ones, up to max (ready in all), a chunk's run
// at a time; they are the cursor's until the next Read, and fn writes
// none of them. Once stopped, Read returns false rather than wait.
func (c *Cursor) Read(max int, fn func(run []Mutation, ready int)) bool {
	c.p.mu.Lock()
	c.p.release(c)
	for !c.ready() && !c.done {
		c.p.await(c)
	}
	c.p.mu.Unlock()
	ready := int(min(uint64(max), c.p.appended()-c.at()))
	for n := 0; n < ready && c.ready(); {
		run := c.run(ready - n)
		fn(run, ready)
		n += len(run)
	}
	return ready > 0
}

// Stop makes a Read that finds nothing ready return false.
func (c *Cursor) Stop() {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	c.done = true
	c.p.wake.Broadcast()
}

// Close detaches the cursor; Pending keeps counting past it.
func (c *Cursor) Close() {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	c.p.detach(c)
}

// Pending is the number of entries appended that c has not given back.
func (c *Cursor) Pending() int {
	c.p.mu.Lock()
	defer c.p.mu.Unlock()
	return int(c.p.appended() - c.pin)
}

// HighSeqno reports the highest seqno published so far; a local
// producer's never fails.
func (p *Producer) HighSeqno() (uint64, error) { return p.high.Load(), nil }

// StreamLags reports items-remaining per open stream: the producer's
// high seqno minus the last seqno each consumer has applied (it came
// back for more) — the paper's §4.3.4 index-freshness metric,
// generalized to every DCP consumer. Seqnos are dense per vBucket, so
// the difference counts unapplied mutations.
func (p *Producer) StreamLags() map[string]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out map[string]uint64
	high := p.high.Load()
	for _, c := range p.cursors {
		s := c.stream
		if s == nil {
			continue
		} else if out == nil {
			out = map[string]uint64{}
		}
		lag := high - min(high, s.applied.Load())
		// Streams sharing a name (same consumer across reopen) keep
		// the worst lag. Caught-up streams still report an entry, so
		// a scrape sees lag 0 rather than a vanished series.
		if cur, ok := out[s.Name]; !ok || lag > cur {
			out[s.Name] = lag
		}
	}
	return out
}

// Close ends the producer's streams and refuses new ones; Publish and
// the flusher's cursor go on.
func (p *Producer) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	for i := len(p.cursors) - 1; i >= 0; i-- {
		if s := p.cursors[i].stream; s != nil {
			s.closeLocked()
		}
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
	s := &Stream{Name: name, UUID: cur, producer: p, taken: fromSeqno}
	s.cur.stream = s
	s.applied.Store(fromSeqno)
	p.attach(&s.cur)
	p.mu.Unlock()

	// Snapshot after attaching to the log: anything published between
	// attach and scan is either in the snapshot or read by the cursor with
	// a seqno above the snapshot watermark.
	items, high, err := p.source.Snapshot(fromSeqno)
	if err != nil {
		s.Close()
		return nil, err
	}
	// Existing data a fresh stream must backfill counts as lag, so the
	// producer's watermark covers the snapshot even before the first
	// live publish.
	raise(&p.high, high)
	p.mu.Lock()
	if !s.cur.done {
		s.backfill, s.snapshotHigh = items, high
	}
	p.mu.Unlock()
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

// MaxKeptBatch caps, in slots (~50 KiB), the batch buffer (a
// MutationStream's, a flusher's) kept while batches are small:
// transport's maxPooledBufBytes rule.
const MaxKeptBatch = 512

// Stream is one consumer's ordered view of a vBucket's changes: a
// backfill, then a cursor in the producer's log. UUID is the vBucket
// UUID it was opened under, which a resumable consumer records.
type Stream struct {
	Name     string
	UUID     uint64
	producer *Producer

	// Guarded by the producer's mu: the cursor, the backfill the first
	// batch starts with, and the batch Next copied out last.
	cur          Cursor
	backfill     []Mutation
	snapshotHigh uint64
	batch        []Mutation
	// taken is the last seqno Next handed out.
	taken uint64

	// applied is the last seqno the consumer is done with: taken as of
	// its latest call of Next. The producer reads it to compute lag.
	applied atomic.Uint64
}

// StreamUUID returns the vBucket UUID the stream was opened under
// (the UUID field, behind the MutationStream seam).
func (s *Stream) StreamUUID() uint64 { return s.UUID }

// Next implements MutationStream. It copies the ready entries out of
// the log under the producer's mu, so that a Close from another
// goroutine, which gives up the cursor's pin, never races a read.
func (s *Stream) Next() ([]Mutation, bool) {
	p := s.producer
	p.mu.Lock()
	defer p.mu.Unlock()
	s.applied.Store(s.taken)
	// The last batch is cleared so it pins nothing; a buffer grown past
	// MaxKeptBatch is kept while batches need it, not regrown per burst.
	clear(s.batch)
	for !s.cur.done {
		n := int(p.appended() - s.cur.at())
		if cap(s.batch) > MaxKeptBatch && n <= MaxKeptBatch {
			s.batch = nil
		}
		batch := s.batch[:0]
		if s.backfill != nil {
			batch, s.backfill = s.backfill, nil
		}
		batch = slices.Grow(batch, n)
		for n > 0 && s.cur.ready() {
			run := s.cur.run(n)
			n -= len(run)
			// A mutation at or below the snapshot high is in the backfill.
			for len(run) > 0 && run[0].Seqno <= s.snapshotHigh {
				run = run[1:]
			}
			batch = append(batch, run...)
		}
		p.release(&s.cur)
		if s.batch = batch; len(batch) > 0 {
			s.taken = batch[len(batch)-1].Seqno
			return batch, true
		}
		p.await(&s.cur)
	}
	return nil, false
}

// Close detaches the stream; what it has not handed out is dropped, and
// the consumer resumes elsewhere from what it applied.
func (s *Stream) Close() {
	s.producer.mu.Lock()
	defer s.producer.mu.Unlock()
	s.closeLocked()
}

func (s *Stream) closeLocked() {
	if !s.cur.done {
		s.backfill = nil
		s.producer.detach(&s.cur)
	}
}
