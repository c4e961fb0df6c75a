package core

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"couchgo/internal/cmap"
)

// residentCluster is couchbench's lib.kv-a in small: two nodes, 64
// vBuckets (newTestCluster's 16 put two clients on one vBucket's
// counters four times as often, which is not what lib.kv-a measures),
// one replica, 1 024 resident 1 KiB documents.
func residentCluster(tb testing.TB) (*Client, []string, []byte) {
	tb.Helper()
	c, err := NewCluster(Config{Dir: tb.TempDir(), NumVBuckets: 64})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Close)
	for i := 0; i < 2; i++ {
		if _, err := c.AddNode(cmap.NodeID(fmt.Sprintf("node%d", i)), cmap.AllServices); err != nil {
			tb.Fatal(err)
		}
	}
	if err := c.CreateBucket("default", BucketOptions{NumReplicas: 1}); err != nil {
		tb.Fatal(err)
	}
	cl, err := c.OpenBucket("default")
	if err != nil {
		tb.Fatal(err)
	}
	value := make([]byte, 1024)
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("user%06d", i)
		if _, err := cl.Set(context.Background(), keys[i], value, 0); err != nil {
			tb.Fatal(err)
		}
	}
	settle(tb, c, 2)
	return cl, keys, value
}

// BenchmarkClientGet and BenchmarkClientSet are the two halves of
// lib.kv-a's mix through the whole client: Client.do → route → Conn →
// Do. Run at -cpu 1,2 they say what a second core buys, which is what
// a lock word every client writes takes away:
//
//	go test -run '^$' -bench 'ClientGet|ClientSet' -cpu 1,2 -benchtime 2000000x -cpuprofile /root/scratch/cpu.out -o /root/scratch/core.test ./internal/core
//	go tool pprof -peek 'sync.\(\*Mutex\).Lock$' /root/scratch/core.test /root/scratch/cpu.out   # its callers: cache, dcp, gsi; none in core
func BenchmarkClientGet(b *testing.B) {
	cl, keys, _ := residentCluster(b)
	ctx := context.Background()
	var worker atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := int(worker.Add(1)) * 257; pb.Next(); i++ {
			if _, err := cl.Get(ctx, keys[i%len(keys)]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

func BenchmarkClientSet(b *testing.B) {
	cl, keys, value := residentCluster(b)
	ctx := context.Background()
	var worker atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for i := int(worker.Add(1)) * 257; pb.Next(); i++ {
			if _, err := cl.Set(ctx, keys[i%len(keys)], value, 0); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
