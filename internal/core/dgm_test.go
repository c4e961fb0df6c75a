package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"couchgo/internal/cmap"
	"couchgo/internal/metrics"
)

// BenchmarkDGMRead is the bucket that has outgrown its memory
// (couchbench's lib.kv-dgm, in-process): two nodes, 64 vBuckets, a
// quota of a quarter of 100 000 × 1 KiB records, uniform Gets with 5 %
// Sets, so four reads in five fetch from storage and the item pager
// runs every tick. A CPU profile of it says how much of a read is the
// fetch and how much of the machine the pager takes:
//
//	go test -run '^$' -bench DGMRead -cpu 2 -benchtime 2000000x -cpuprofile /root/scratch/cpu.out -o /root/scratch/core.test ./internal/core
//	go tool pprof -top -cum /root/scratch/core.test /root/scratch/cpu.out | grep -E 'pread|VBFile|Pager|sweep|Evict'
//
// visits/eviction is the pager's waste: 3 (aged twice, then evicted) is
// the floor.
func BenchmarkDGMRead(b *testing.B) {
	const records, valueLen = 100000, 1024
	c, err := NewCluster(Config{Dir: b.TempDir(), NumVBuckets: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	for i := 0; i < 2; i++ {
		if _, err := c.AddNode(cmap.NodeID(fmt.Sprintf("node%d", i)), cmap.AllServices); err != nil {
			b.Fatal(err)
		}
	}
	// The quota is per node, and each node holds half of the data.
	quota := int64(records * valueLen / 4 / 2)
	if err := c.CreateBucket("default", BucketOptions{MemoryQuotaBytes: quota}); err != nil {
		b.Fatal(err)
	}
	cl, err := c.OpenBucket("default")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	value := make([]byte, valueLen)
	keys := make([]string, records)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%06d", i)
		if _, err := cl.Set(ctx, keys[i], value, 0); err != nil {
			b.Fatal(err)
		}
	}
	settle(b, c, 2)
	waitUntil(b, "the pager to bring both nodes under quota", func() bool {
		for _, st := range c.Stats("default") {
			if st.MemUsed > quota {
				return false
			}
		}
		return true
	})
	visited := metrics.Default.Counter("couchgo_cache_pager_visited_total")
	evictions := metrics.Default.Counter("couchgo_cache_evictions_total", "mode", "value")
	visited0, evictions0 := visited.Value(), evictions.Value()
	var seed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			key := keys[rng.Intn(records)]
			if rng.Intn(20) == 0 {
				if _, err := cl.Set(ctx, key, value, 0); err != nil {
					b.Error(err)
					return
				}
			} else if it, err := cl.Get(ctx, key); err != nil || len(it.Value) != valueLen {
				b.Errorf("Get(%s) = %d bytes, %v", key, len(it.Value), err)
				return
			}
		}
	})
	b.StopTimer()
	if n := evictions.Value() - evictions0; n > 0 {
		b.ReportMetric(float64(visited.Value()-visited0)/float64(n), "visits/eviction")
	}
}
