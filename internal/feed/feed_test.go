package feed

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"couchgo/internal/dcp"
	"couchgo/internal/events"
	"couchgo/internal/metrics"
)

// memSource is an in-memory SnapshotSource of latest document versions.
type memSource struct {
	mu    sync.Mutex
	items map[string]dcp.Mutation
	high  uint64
}

func newMemSource() *memSource { return &memSource{items: map[string]dcp.Mutation{}} }

func (s *memSource) Snapshot(from uint64) ([]dcp.Mutation, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []dcp.Mutation
	for _, it := range s.items {
		if it.Seqno > from {
			out = append(out, it)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seqno < out[j].Seqno })
	return out, s.high, nil
}

func (s *memSource) publish(p *dcp.Producer, m dcp.Mutation) {
	s.mu.Lock()
	s.items[m.Key] = m
	if m.Seqno > s.high {
		s.high = m.Seqno
	}
	s.mu.Unlock()
	p.Publish(m)
}

// docs returns the source's live document keys.
func (s *memSource) docs() map[string]uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]uint64, len(s.items))
	for k, m := range s.items {
		if !m.Deleted {
			out[k] = m.Seqno
		}
	}
	return out
}

// recordingConsumer stores applied documents per vBucket and logs every
// Apply call; Rollback wipes the partition.
type recordingConsumer struct {
	mu      sync.Mutex
	docs    map[int]map[string]uint64
	applied []uint64 // every applied seqno, in call order
	// gate, when set, parks every Apply until it receives or closes;
	// parked counts the Applies that have reached it.
	gate   chan struct{}
	parked atomic.Int32
}

func newRecordingConsumer() *recordingConsumer {
	return &recordingConsumer{docs: map[int]map[string]uint64{}}
}

func (c *recordingConsumer) Apply(vb int, m dcp.Mutation) {
	if c.gate != nil {
		c.parked.Add(1)
		<-c.gate
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.docs[vb] == nil {
		c.docs[vb] = map[string]uint64{}
	}
	if m.Deleted {
		delete(c.docs[vb], m.Key)
	} else {
		c.docs[vb][m.Key] = m.Seqno
	}
	c.applied = append(c.applied, m.Seqno)
}

func (c *recordingConsumer) Rollback(vb int, _ uint64) uint64 {
	c.mu.Lock()
	delete(c.docs, vb)
	c.mu.Unlock()
	return 0
}

func (c *recordingConsumer) snapshot(vb int) map[string]uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]uint64, len(c.docs[vb]))
	for k, v := range c.docs[vb] {
		out[k] = v
	}
	return out
}

func (c *recordingConsumer) appliedSeqnos() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]uint64(nil), c.applied...)
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func equalDocs(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

func TestFeedDeliversInOrder(t *testing.T) {
	src := newMemSource()
	p := dcp.NewProducer(0, src)
	defer p.Close()
	c := newRecordingConsumer()
	f := New("t-deliver", c, Config{Service: "test"})
	defer f.Close()
	if err := f.Attach(0, p); err != nil {
		t.Fatal(err)
	}
	// Attach is idempotent for a live unchanged producer.
	if err := f.Attach(0, p); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		src.publish(p, dcp.Mutation{Key: fmt.Sprintf("k%02d", i), Seqno: uint64(i)})
	}
	waitFor(t, "all mutations applied", func() bool { return len(c.snapshot(0)) == 50 })
	seqs := c.appliedSeqnos()
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("out-of-order delivery: %d then %d", seqs[i-1], seqs[i])
		}
	}
	if got := f.Processed()[0]; got != 50 {
		t.Fatalf("Processed()[0] = %d, want 50", got)
	}
}

// TestStaleResumeRollsBackAndReconverges is the failover scenario: the
// consumer streamed to seqno 10 from the old active, the promoted
// replica only has history to seqno 5 plus its own new branch, and on
// reattach the consumer must roll back and converge to the survivor's
// state — counted in couchgo_feed_rollbacks_total.
func TestStaleResumeRollsBackAndReconverges(t *testing.T) {
	rollbacks := metrics.Default.Counter("couchgo_feed_rollbacks_total", "service", "test")
	before := rollbacks.Value()

	srcA := newMemSource()
	active := dcp.NewProducer(0, srcA)
	c := newRecordingConsumer()
	f := New("t-rollback", c, Config{Service: "test"})
	defer f.Close()
	if err := f.Attach(0, active); err != nil {
		t.Fatal(err)
	}
	// Shared history 1..5, then divergent writes 6..10 the replica
	// never saw.
	for i := 1; i <= 10; i++ {
		src := srcA
		src.publish(active, dcp.Mutation{Key: fmt.Sprintf("a%02d", i), Seqno: uint64(i)})
	}
	waitFor(t, "consumer caught up on old active", func() bool { return f.Processed()[0] == 10 })

	srcB, replica := promoteDivergedReplica(active)
	defer replica.Close()
	if err := f.Attach(0, replica); err != nil {
		t.Fatal(err)
	}
	srcB.publish(replica, dcp.Mutation{Key: "b06", Seqno: 6})

	waitFor(t, "consumer re-converged on promoted replica", func() bool {
		return equalDocs(c.snapshot(0), srcB.docs())
	})
	if got := rollbacks.Value(); got != before+1 {
		t.Fatalf("couchgo_feed_rollbacks_total = %d, want %d", got, before+1)
	}
	// The divergent documents are gone from the consumer.
	if _, ok := c.snapshot(0)["a07"]; ok {
		t.Fatal("rolled-back document a07 survived in the consumer")
	}
}

// promoteDivergedReplica fails vBucket 0 over from active (whose
// history a01..a10 the consumer has seen) to a replica that holds only
// a01..a05: it adopts the failover log, takes over at 5, and the old
// active dies. Its own post-promotion writes start at seqno 6.
func promoteDivergedReplica(active *dcp.Producer) (*memSource, *dcp.Producer) {
	src := newMemSource()
	replica := dcp.NewProducer(0, src)
	for i := 1; i <= 5; i++ {
		k := fmt.Sprintf("a%02d", i)
		src.items[k] = dcp.Mutation{Key: k, Seqno: uint64(i)}
	}
	src.high = 5
	replica.SetFailoverLog(active.FailoverLog())
	replica.Takeover(5)
	active.Close()
	return src, replica
}

// TestReattachAfterProducerClose: a caught-up consumer survives its
// producer closing (node death) and reattaches to the successor with
// no duplicate and no lost mutations.
func TestReattachAfterProducerClose(t *testing.T) {
	src := newMemSource()
	a := dcp.NewProducer(0, src)
	c := newRecordingConsumer()
	f := New("t-reattach", c, Config{Service: "test"})
	defer f.Close()
	if err := f.Attach(0, a); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		src.publish(a, dcp.Mutation{Key: fmt.Sprintf("k%d", i), Seqno: uint64(i)})
	}
	waitFor(t, "first five applied", func() bool { return f.Processed()[0] == 5 })
	a.Close()

	// Successor over the same history (same source, adopted log, no
	// takeover — a clean handoff, e.g. rebalance).
	b := dcp.NewProducer(0, src)
	defer b.Close()
	b.SetFailoverLog(a.FailoverLog())
	if err := f.Attach(0, b); err != nil {
		t.Fatal(err)
	}
	for i := 6; i <= 8; i++ {
		src.publish(b, dcp.Mutation{Key: fmt.Sprintf("k%d", i), Seqno: uint64(i)})
	}
	waitFor(t, "post-reattach mutations applied", func() bool { return f.Processed()[0] == 8 })

	seqs := c.appliedSeqnos()
	if len(seqs) != 8 {
		t.Fatalf("applied %d mutations, want exactly 8 (no dup, no loss): %v", len(seqs), seqs)
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("applied seqnos = %v, want 1..8 in order", seqs)
		}
	}
}

// TestBackpressureStallCounter: a drain that comes back to a backlog
// deeper than stallBatch counts one stall, journals one event, and
// holds the stalled gauge up for as long as the batch takes to apply.
func TestBackpressureStallCounter(t *testing.T) {
	stalls := metrics.Default.Counter("couchgo_feed_stalls_total", "service", "test-stall")
	stalled := metrics.Default.Gauge("couchgo_feed_stalled", "service", "test-stall")
	highWater := metrics.Default.Gauge("couchgo_feed_buffer_high_watermark", "service", "test-stall")
	stallsBefore, lastEvent := stalls.Value(), events.Default.LastSeq()
	highWater.Set(0) // monotone per process; this run's batch must be what sets it

	src := newMemSource()
	p := dcp.NewProducer(0, src)
	defer p.Close()
	c := newRecordingConsumer()
	c.gate = make(chan struct{})
	f := New("t-stall", c, Config{Service: "test-stall"})
	defer f.Close()
	var open sync.Once
	release := func() { open.Do(func() { close(c.gate) }) }
	defer release() // a failure must not leave Close waiting on a parked drain
	if err := f.Attach(0, p); err != nil {
		t.Fatal(err)
	}
	// Park the consumer on a batch of one, then let the backlog build
	// behind it.
	const backlog = stallBatch + 1
	src.publish(p, dcp.Mutation{Key: "k1", Seqno: 1})
	waitFor(t, "consumer parked on the first mutation", func() bool { return c.parked.Load() == 1 })
	for i := 2; i <= 1+backlog; i++ {
		src.publish(p, dcp.Mutation{Key: fmt.Sprintf("k%d", i), Seqno: uint64(i)})
	}
	if got := stalls.Value() - stallsBefore; got != 0 || stalled.Value() != 0 {
		t.Fatalf("stalls = %d, stalled = %d before the drain saw the backlog", got, stalled.Value())
	}
	c.gate <- struct{}{} // the drain comes back to the whole backlog
	waitFor(t, "consumer parked inside the deep batch", func() bool { return c.parked.Load() == 2 })
	if got := stalls.Value() - stallsBefore; got != 1 || stalled.Value() != 1 {
		t.Fatalf("stalls = %d, stalled = %d inside a batch of %d, want 1 and 1", got, stalled.Value(), backlog)
	}
	if got := highWater.Value(); got != backlog {
		t.Fatalf("high watermark = %d, want the batch size %d", got, backlog)
	}
	var stallEvents int
	for _, e := range events.Default.Events(events.Filter{Type: events.FeedEvent, SinceSeq: lastEvent}) {
		if e.Service == "test-stall" && e.Fields["batch"] == strconv.Itoa(backlog) {
			stallEvents++
		}
	}
	if stallEvents != 1 {
		t.Fatalf("%d stall events journaled, want 1", stallEvents)
	}
	release()
	waitFor(t, "backlog drained after release", func() bool { return f.Processed()[0] == 1+backlog })
	waitFor(t, "stalled gauge back to zero", func() bool { return stalled.Value() == 0 })
	if got := stalls.Value() - stallsBefore; got != 1 {
		t.Fatalf("stalls = %d after the drain, want 1", got)
	}
}

func TestDetachForgetsResumeState(t *testing.T) {
	src := newMemSource()
	p := dcp.NewProducer(0, src)
	defer p.Close()
	c := newRecordingConsumer()
	f := New("t-detach", c, Config{Service: "test"})
	defer f.Close()
	if err := f.Attach(0, p); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		src.publish(p, dcp.Mutation{Key: fmt.Sprintf("k%d", i), Seqno: uint64(i)})
	}
	waitFor(t, "initial mutations applied", func() bool { return f.Processed()[0] == 3 })
	f.Detach(0)
	if len(f.Processed()) != 0 {
		t.Fatal("Detach left resume state behind")
	}
	// Reattach streams from scratch: the three documents re-apply.
	if err := f.Attach(0, p); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "re-stream after detach", func() bool { return len(c.appliedSeqnos()) >= 6 })
}

func TestHubFansOutAndUnsubscribes(t *testing.T) {
	src0, src1 := newMemSource(), newMemSource()
	p0, p1 := dcp.NewProducer(0, src0), dcp.NewProducer(1, src1)
	defer p0.Close()
	defer p1.Close()
	h := NewHub("test")
	defer h.Close()
	if err := h.AttachVB(0, p0); err != nil {
		t.Fatal(err)
	}
	c1 := newRecordingConsumer()
	f1, err := h.Subscribe("h-one", c1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Subscribe("h-one", newRecordingConsumer()); err == nil {
		t.Fatal("duplicate subscription accepted")
	}
	// A producer attached after subscription reaches existing feeds; a
	// feed subscribed after attachment sees existing producers.
	if err := h.AttachVB(1, p1); err != nil {
		t.Fatal(err)
	}
	c2 := newRecordingConsumer()
	f2, err := h.Subscribe("h-two", c2)
	if err != nil {
		t.Fatal(err)
	}
	src0.publish(p0, dcp.Mutation{Key: "x", Seqno: 1})
	src1.publish(p1, dcp.Mutation{Key: "y", Seqno: 1})
	waitFor(t, "both feeds cover both vbuckets", func() bool {
		return f1.Processed()[0] == 1 && f1.Processed()[1] == 1 &&
			f2.Processed()[0] == 1 && f2.Processed()[1] == 1
	})
	st := h.Stats()
	if len(st) != 2 || st[0].Name != "h-one" || st[1].Name != "h-two" {
		t.Fatalf("hub stats = %+v", st)
	}
	if st[0].Service != "test" || st[0].VBuckets != 2 {
		t.Fatalf("stat fields = %+v", st[0])
	}

	h.Unsubscribe("h-two")
	src0.publish(p0, dcp.Mutation{Key: "x2", Seqno: 2})
	waitFor(t, "surviving feed advances", func() bool { return f1.Processed()[0] == 2 })
	if got := f2.Processed()[0]; got == 2 {
		t.Fatal("unsubscribed feed still consuming")
	}

	h.DetachVB(0)
	waitFor(t, "detach drops the vbucket", func() bool {
		_, ok := f1.Processed()[0]
		return !ok
	})
	h.Close()
	if err := h.AttachVB(0, p0); err != ErrClosed {
		t.Fatalf("AttachVB on closed hub: %v", err)
	}
	if _, err := h.Subscribe("late", newRecordingConsumer()); err != ErrClosed {
		t.Fatalf("Subscribe on closed hub: %v", err)
	}
}
