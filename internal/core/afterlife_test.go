package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/vbucket"
)

// settle waits until every copy of every vBucket holds, and has
// persisted, what the most advanced copy holds: the end of every Set's
// asynchronous life on an in-process cluster.
func settle(tb testing.TB, c *Cluster, nodes int) {
	tb.Helper()
	for vbID := 0; vbID < c.cfg.NumVBuckets; vbID++ {
		var copies []*vbucket.VBucket
		var high uint64
		for n := 0; n < nodes; n++ {
			if vb, _ := c.NodeVB(cmap.NodeID(fmt.Sprintf("node%d", n)), "default", vbID); vb != nil {
				copies = append(copies, vb)
				high = max(high, vb.HighSeqno())
			}
		}
		for _, vb := range copies {
			waitUntil(tb, fmt.Sprintf("vb %d to reach seqno %d", vbID, high), func() bool { return vb.HighSeqno() >= high })
			if err := vb.DrainDisk(10 * time.Second); err != nil {
				tb.Fatalf("vb %d: %v", vbID, err)
			}
		}
	}
}

// BenchmarkSetAfterlife is one 1 KiB Set and everything it causes on a
// two-node bucket with one replica: the cache install, the active
// copy's disk-write queue, flusher and file, the DCP stream, the
// replica link and the replica's own queue, flusher and file. The
// allocation counters are process-wide, so B/op is the whole
// afterlife's; the timer stops once every copy has persisted.
//
//	go test -run '^$' -bench SetAfterlife -benchtime 200000x -memprofile /root/scratch/mem.out -o /root/scratch/core.test ./internal/core
//	go tool pprof -sample_index=alloc_space -top /root/scratch/core.test /root/scratch/mem.out
//
// names the function that allocates most.
func BenchmarkSetAfterlife(b *testing.B) {
	c, cl := newTestCluster(b, 2, 1)
	value := make([]byte, 1024)
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%06d", i)
	}
	ctx := context.Background()
	for _, k := range keys {
		if _, err := cl.Set(ctx, k, value, 0); err != nil {
			b.Fatal(err)
		}
	}
	settle(b, c, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Set(ctx, keys[i%len(keys)], value, 0); err != nil {
			b.Fatal(err)
		}
	}
	settle(b, c, 2)
}
