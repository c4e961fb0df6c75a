package dcp

import (
	"fmt"
	"slices"
	"testing"
)

// readAll reads c until nothing is ready, returning the seqnos it read.
func readAll(c *Cursor) (seqnos []uint64) {
	c.Stop()
	for c.Read(ChunkLen, func(run []Mutation, _ int) {
		for _, m := range run {
			seqnos = append(seqnos, m.Seqno)
		}
	}) {
	}
	return seqnos
}

// fill publishes n mutations past the producer's high seqno.
func fill(src *memSource, p *Producer, n int) {
	high, _ := p.HighSeqno()
	for i := high + 1; i <= high+uint64(n); i++ {
		publish(src, p, Mutation{Key: fmt.Sprintf("k%d", i), Seqno: i})
	}
}

func seqnosOf(batch []Mutation) (seqnos []uint64) {
	for _, m := range batch {
		seqnos = append(seqnos, m.Seqno)
	}
	return seqnos
}

// TestLog is the contract of the one log a producer keeps, one row per
// clause.
func TestLog(t *testing.T) {
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	cases := []struct {
		name string
		run  func(t *testing.T, src *memSource, p *Producer)
	}{
		{"a ready run across chunks comes in one batch", func(t *testing.T, src *memSource, p *Producer) {
			s := open(t, p, "c", 0)
			defer s.Close()
			const n = 3*ChunkLen + 7
			for i := 1; i <= n; i++ {
				publish(src, p, Mutation{Key: key(i), Seqno: uint64(i)})
			}
			if batch, _ := s.Next(); len(batch) != n || batch[n-1].Seqno != n {
				t.Fatalf("one Next returned %d mutations, want %d", len(batch), n)
			}
		}},
		{"a cursor reads up to max, and every entry once", func(t *testing.T, src *memSource, p *Producer) {
			c := p.NewCursor()
			defer c.Close()
			for i := 1; i <= ChunkLen+10; i++ {
				publish(src, p, Mutation{Key: key(i), Seqno: uint64(i)})
			}
			var got int
			c.Read(ChunkLen+5, func(run []Mutation, ready int) {
				if ready != ChunkLen+5 {
					t.Errorf("ready = %d, want %d", ready, ChunkLen+5)
				}
				got += len(run)
			})
			if rest := readAll(c); got != ChunkLen+5 || len(rest) != 5 || rest[0] != ChunkLen+6 {
				t.Fatalf("read %d, then %v", got, rest)
			}
			if p.NewCursor().Pending() != 0 || c.Pending() != 0 {
				t.Fatal("a cursor that read everything has entries pending")
			}
		}},
		{"what every cursor passed is cleared", func(t *testing.T, src *memSource, p *Producer) {
			c := p.NewCursor()
			defer c.Close()
			s := open(t, p, "c", 0)
			for i := 1; i <= 10; i++ {
				publish(src, p, Mutation{Key: key(i), Seqno: uint64(i), Value: []byte("v")})
			}
			first := p.tail.Load()
			readAll(c)
			if first.slots[0].Key == "" {
				t.Fatal("an entry the stream has not read was cleared")
			}
			collect(t, s, 10)
			s.Close() // gives the batch back, and leaves the flusher's cursor alone
			for i := range 10 {
				if m := first.slots[i]; m.Key != "" || m.Value != nil {
					t.Fatalf("slot %d every cursor passed holds %+v", i, m)
				}
			}
		}},
		{"a chunk a cursor stands at the end of is not reused", func(t *testing.T, src *memSource, p *Producer) {
			c := p.NewCursor()
			defer c.Close()
			s := open(t, p, "c", 0)
			defer s.Close()
			fill(src, p, ChunkLen)
			first := p.tail.Load()
			c.Read(ChunkLen, func([]Mutation, int) {})
			collect(t, s, ChunkLen)
			fill(src, p, 2*ChunkLen)            // rolls over twice; the stream passes both chunks
			c.Read(0, func([]Mutation, int) {}) // gives the first chunk back, standing at its end
			collect(t, s, 2*ChunkLen)
			fill(src, p, ChunkLen)
			if p.tail.Load() == first {
				t.Fatal("the chunk a cursor stands at the end of was reused")
			}
			readAll(c)
			passed := []*chunk{first, first.next.Load(), first.next.Load().next.Load()}
			if fill(src, p, ChunkLen); !slices.Contains(passed, p.tail.Load()) {
				t.Fatal("no chunk every cursor passed was reused")
			}
		}},
		{"cursors parked and reading while chunks roll over see every entry once", func(t *testing.T, src *memSource, p *Producer) {
			const n = 16 * ChunkLen
			c := p.NewCursor()
			read := make(chan []uint64)
			go func() {
				var seqnos []uint64
				for len(seqnos) < n && c.Read(ChunkLen/3, func(run []Mutation, _ int) {
					for _, m := range run {
						seqnos = append(seqnos, m.Seqno)
					}
				}) {
				}
				read <- seqnos
			}()
			s := open(t, p, "c", 0)
			defer s.Close()
			go fill(src, p, n)
			streamed := seqnosOf(collect(t, s, n))
			for _, got := range [][]uint64{<-read, streamed} {
				for i, seqno := range got {
					if seqno != uint64(i+1) {
						t.Fatalf("entry %d has seqno %d", i, seqno)
					}
				}
			}
			c.Close()
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
