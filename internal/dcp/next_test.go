package dcp

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// hookSource runs before and after around the inner snapshot, standing
// in for publishes that race a stream's open.
type hookSource struct {
	*memSource
	before, after func()
}

func (h *hookSource) Snapshot(from uint64) ([]Mutation, uint64, error) {
	if h.before != nil {
		h.before()
	}
	items, high, err := h.memSource.Snapshot(from)
	if h.after != nil {
		h.after()
	}
	return items, high, err
}

// blocked starts a Next and returns the channel its ok lands on, once
// the call has had time to park.
func blocked(s *Stream) <-chan bool {
	done := make(chan bool, 1)
	go func() {
		_, ok := s.Next()
		done <- ok
	}()
	time.Sleep(5 * time.Millisecond)
	return done
}

func wantEnd(t *testing.T, done <-chan bool) {
	t.Helper()
	select {
	case ok := <-done:
		if ok {
			t.Fatal("Next returned a batch, want ok=false")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Next was not woken")
	}
}

func wantSeqnos(t *testing.T, got []Mutation, want ...uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d mutations %v, want seqnos %v", len(got), got, want)
	}
	for i, m := range got {
		if m.Seqno != want[i] {
			t.Fatalf("mutation %d has seqno %d, want %v", i, m.Seqno, want)
		}
	}
}

// TestNext is the contract of the pull call, one row per clause.
func TestNext(t *testing.T) {
	key := func(i uint64) string { return fmt.Sprintf("k%d", i) }
	cases := []struct {
		name string
		run  func(t *testing.T, src *memSource, p *Producer)
	}{
		{"everything ready comes in one ordered batch", func(t *testing.T, src *memSource, p *Producer) {
			for i := uint64(1); i <= 5; i++ {
				publish(src, p, Mutation{Key: key(i), Seqno: i})
			}
			s := open(t, p, "c", 2)
			defer s.Close()
			for i := uint64(6); i <= 8; i++ {
				publish(src, p, Mutation{Key: key(i), Seqno: i})
			}
			batch, ok := s.Next()
			if !ok {
				t.Fatal("stream ended")
			}
			wantSeqnos(t, batch, 3, 4, 5, 6, 7, 8)
			publish(src, p, Mutation{Key: key(9), Seqno: 9})
			batch, _ = s.Next()
			wantSeqnos(t, batch, 9)
		}},
		{"a publish racing the open is delivered once", func(t *testing.T, src *memSource, p *Producer) {
			for i := uint64(1); i <= 5; i++ {
				publish(src, p, Mutation{Key: key(i), Seqno: i})
			}
			hs := &hookSource{memSource: src}
			hp := NewProducer(0, hs)
			defer hp.Close()
			// 6 lands in the snapshot and on the attached stream's queue;
			// 7 only on the queue, past the snapshot high.
			hs.before = func() { publish(src, hp, Mutation{Key: key(6), Seqno: 6}) }
			hs.after = func() { publish(src, hp, Mutation{Key: key(7), Seqno: 7}) }
			s := open(t, hp, "c", 0)
			defer s.Close()
			batch, _ := s.Next()
			wantSeqnos(t, batch, 1, 2, 3, 4, 5, 6, 7)
		}},
		{"Close wakes a blocked Next", func(t *testing.T, src *memSource, p *Producer) {
			s := open(t, p, "c", 0)
			done := blocked(s)
			s.Close()
			wantEnd(t, done)
			if _, ok := s.Next(); ok {
				t.Fatal("Next after Close returned a batch")
			}
		}},
		{"Producer.Close ends a blocked Next and drops the queue", func(t *testing.T, src *memSource, p *Producer) {
			s := open(t, p, "c", 0)
			done := blocked(s)
			p.Close()
			wantEnd(t, done)
			queued := open(t, NewProducer(0, src), "c", 0)
			publish(src, queued.producer, Mutation{Key: "k", Seqno: 1})
			queued.producer.Close()
			if batch, ok := queued.Next(); ok {
				t.Fatalf("Next after Producer.Close returned %v", batch)
			}
		}},
		{"lag is zero only once the consumer comes back", func(t *testing.T, src *memSource, p *Producer) {
			for i := uint64(1); i <= 100; i++ {
				publish(src, p, Mutation{Key: key(i), Seqno: i})
			}
			s := open(t, p, "c", 0) // the backfill is owed too
			if lag := p.StreamLags()["c"]; lag != 100 {
				t.Fatalf("lag before the first pull = %d, want 100", lag)
			}
			collect(t, s, 100)
			if lag := p.StreamLags()["c"]; lag != 100 {
				t.Fatalf("lag while the batch is held = %d, want 100", lag)
			}
			done := blocked(s)
			if lag, listed := p.StreamLags()["c"]; lag != 0 || !listed {
				t.Fatalf("lag after the consumer came back = %d (listed=%v), want 0", lag, listed)
			}
			s.Close()
			wantEnd(t, done)
		}},
		{"8 publishers, 1 consumer", func(t *testing.T, src *memSource, p *Producer) {
			s := open(t, p, "c", 0)
			defer s.Close()
			const publishers, each = 8, 500
			var (
				mu  sync.Mutex // the vBucket's table lock: seqno order
				seq uint64
				wg  sync.WaitGroup
			)
			for g := 0; g < publishers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < each; i++ {
						mu.Lock()
						seq++
						publish(src, p, Mutation{Key: key(seq), Seqno: seq})
						mu.Unlock()
					}
				}()
			}
			for i, m := range collect(t, s, publishers*each) {
				if m.Seqno != uint64(i+1) {
					t.Fatalf("mutation %d has seqno %d", i, m.Seqno)
				}
			}
			wg.Wait()
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := newMemSource()
			p := NewProducer(0, src)
			defer p.Close()
			tc.run(t, src, p)
		})
	}
}

// BenchmarkStreamHandoff times one mutation from Publish to the moment
// the consumer's goroutine holds it, one at a time: the hand-off a Set
// starts before its response and a replica ack waits behind.
func BenchmarkStreamHandoff(b *testing.B) {
	p := NewProducer(0, newMemSource())
	defer p.Close()
	ms, err := p.ResumeStream("bench", 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	held := make(chan struct{})
	go func() {
		defer close(held)
		for batch, ok := ms.Next(); ok; batch, ok = ms.Next() {
			for range batch {
				held <- struct{}{}
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		p.Publish(Mutation{Key: "k", Seqno: uint64(i)})
		<-held
	}
	b.StopTimer()
	ms.Close()
	<-held
}
