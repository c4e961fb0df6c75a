package dcp

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"
)

// memSource is a SnapshotSource over an in-memory latest-version map.
type memSource struct {
	mu    sync.Mutex
	items map[string]Mutation
	high  uint64
}

func newMemSource() *memSource { return &memSource{items: map[string]Mutation{}} }

func (m *memSource) apply(mut Mutation) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.items[mut.Key] = mut
	if mut.Seqno > m.high {
		m.high = mut.Seqno
	}
}

func (m *memSource) Snapshot(from uint64) ([]Mutation, uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Mutation
	for _, it := range m.items {
		if it.Seqno > from {
			out = append(out, it)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seqno < out[j].Seqno })
	return out, m.high, nil
}

// publish applies to the source and the producer, as the vBucket layer
// does under its table lock.
func publish(src *memSource, p *Producer, m Mutation) {
	src.apply(m)
	p.Publish(m)
}

// open opens a stream from seqno from with no history to validate.
func open(t *testing.T, p *Producer, name string, from uint64) *Stream {
	t.Helper()
	s, err := p.ResumeStream(name, 0, from)
	if err != nil {
		t.Fatal(err)
	}
	return s.(*Stream)
}

// collect pulls batches until it holds n mutations. A stream that never
// delivers them hangs in Next, which the watchdog turns into a failure
// by closing the stream.
func collect(t *testing.T, s *Stream, n int) []Mutation {
	t.Helper()
	watchdog := time.AfterFunc(5*time.Second, s.Close)
	defer watchdog.Stop()
	var out []Mutation
	for len(out) < n {
		batch, ok := s.Next()
		if !ok {
			t.Fatalf("stream ended after %d of %d mutations", len(out), n)
		}
		out = append(out, batch...)
	}
	return out
}

func TestLiveStreamDeliversInOrder(t *testing.T) {
	src := newMemSource()
	p := NewProducer(3, src)
	defer p.Close()
	s := open(t, p, "test", 0)
	defer s.Close()
	for i := 1; i <= 20; i++ {
		publish(src, p, Mutation{Key: fmt.Sprintf("k%d", i), Seqno: uint64(i)})
	}
	got := collect(t, s, 20)
	for i, m := range got {
		if m.Seqno != uint64(i+1) {
			t.Fatalf("mutation %d has seqno %d", i, m.Seqno)
		}
		if m.VB != 3 {
			t.Fatalf("vb not stamped: %+v", m)
		}
	}
}

func TestBackfillThenLive(t *testing.T) {
	src := newMemSource()
	p := NewProducer(0, src)
	defer p.Close()
	// Pre-existing state: k1..k5, with k2 rewritten (dedup expected).
	for i := 1; i <= 5; i++ {
		publish(src, p, Mutation{Key: fmt.Sprintf("k%d", i), Seqno: uint64(i)})
	}
	publish(src, p, Mutation{Key: "k2", Seqno: 6})

	s := open(t, p, "late", 0)
	defer s.Close()
	// Live traffic after the stream opens.
	publish(src, p, Mutation{Key: "k7", Seqno: 7})
	got := collect(t, s, 6)
	// Backfill: k1@1, k3@3, k4@4, k5@5, k2@6 (deduplicated), then live k7@7.
	var seqnos []uint64
	for _, m := range got {
		seqnos = append(seqnos, m.Seqno)
	}
	want := []uint64{1, 3, 4, 5, 6, 7}
	for i := range want {
		if seqnos[i] != want[i] {
			t.Fatalf("seqnos = %v, want %v", seqnos, want)
		}
	}
}

func TestStreamFromNonZeroSeqno(t *testing.T) {
	src := newMemSource()
	p := NewProducer(0, src)
	defer p.Close()
	for i := 1; i <= 10; i++ {
		publish(src, p, Mutation{Key: fmt.Sprintf("k%d", i), Seqno: uint64(i)})
	}
	s := open(t, p, "resume", 7)
	defer s.Close()
	got := collect(t, s, 3)
	if got[0].Seqno != 8 || got[2].Seqno != 10 {
		t.Fatalf("resume delivered %+v", got)
	}
}

func TestNoDuplicatesAcrossBackfillLiveBoundary(t *testing.T) {
	// Hammer the boundary: open streams while publishing concurrently;
	// each stream must see every seqno at most once and miss none after
	// its start point (modulo dedup of superseded versions).
	src := newMemSource()
	p := NewProducer(0, src)
	defer p.Close()

	var mu sync.Mutex
	seq := uint64(0)
	next := func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		seq++
		s := seq
		return s
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := next()
			// Unique keys so dedup never hides a seqno.
			mu.Lock()
			publish(src, p, Mutation{Key: fmt.Sprintf("k%d", s), Seqno: s})
			mu.Unlock()
		}
	}()

	for i := 0; i < 5; i++ {
		time.Sleep(2 * time.Millisecond)
		s := open(t, p, fmt.Sprintf("s%d", i), 0)
		got := collect(t, s, 30)
		seen := map[uint64]bool{}
		last := uint64(0)
		for _, m := range got {
			if seen[m.Seqno] {
				t.Fatalf("duplicate seqno %d", m.Seqno)
			}
			seen[m.Seqno] = true
			if m.Seqno <= last {
				t.Fatalf("out of order: %d after %d", m.Seqno, last)
			}
			last = m.Seqno
		}
		s.Close()
	}
	close(stop)
	wg.Wait()
}

func TestSlowConsumerDoesNotBlockPublisher(t *testing.T) {
	src := newMemSource()
	p := NewProducer(0, src)
	defer p.Close()
	s := open(t, p, "slow", 0)
	defer s.Close()
	// Publish a deep backlog without reading.
	done := make(chan struct{})
	go func() {
		for i := 1; i <= 5000; i++ {
			publish(src, p, Mutation{Key: fmt.Sprintf("k%d", i), Seqno: uint64(i)})
		}
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("publisher blocked on slow consumer")
	}
	got := collect(t, s, 5000)
	if got[4999].Seqno != 5000 {
		t.Fatal("tail mutation wrong")
	}
}

func TestCloseStream(t *testing.T) {
	src := newMemSource()
	p := NewProducer(0, src)
	defer p.Close()
	s := open(t, p, "x", 0)
	s.Close()
	s.Close() // idempotent
	if _, ok := s.Next(); ok {
		t.Fatal("Next on a closed stream returned a batch")
	}
}

func TestProducerCloseEndsStreams(t *testing.T) {
	src := newMemSource()
	p := NewProducer(0, src)
	s := open(t, p, "x", 0)
	p.Close()
	if _, ok := s.Next(); ok {
		t.Fatal("stream not ended by producer close")
	}
	if _, err := p.ResumeStream("y", 0, 0); err != ErrClosed {
		t.Errorf("open on closed producer: %v", err)
	}
	p.Publish(Mutation{Seqno: 1}) // must not panic
}

func TestDeletionsFlowThroughStreams(t *testing.T) {
	src := newMemSource()
	p := NewProducer(0, src)
	defer p.Close()
	publish(src, p, Mutation{Key: "k", Seqno: 1})
	publish(src, p, Mutation{Key: "k", Seqno: 2, Deleted: true})
	s := open(t, p, "x", 0)
	defer s.Close()
	got := collect(t, s, 1)
	if !got[0].Deleted || got[0].Seqno != 2 {
		t.Fatalf("tombstone not delivered: %+v", got[0])
	}
}

func TestHighSeqnoTracking(t *testing.T) {
	src := newMemSource()
	p := NewProducer(0, src)
	defer p.Close()
	if high, err := p.HighSeqno(); high != 0 || err != nil {
		t.Fatalf("fresh producer high seqno = %d, %v", high, err)
	}
	publish(src, p, Mutation{Key: "a", Seqno: 9})
	if high, err := p.HighSeqno(); high != 9 || err != nil {
		t.Fatalf("high = %d, %v", high, err)
	}
}
