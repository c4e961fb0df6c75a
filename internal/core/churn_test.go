package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"couchgo/internal/cmap"
)

// TestRouteUnderTopologyChurn: the routing tables an op reads without a
// lock (published.go) change under it. Four clients Get and Set their
// own keys while the test's goroutine walks the cluster through every
// writer of those tables: a node added and rebalanced in, a second
// bucket created, its replication severed, a node killed, failed over
// and rebalanced away. Every op succeeds or fails with an error the
// route loop could always return (its retry budget spent on a moving
// topology); a Get returns the last value its client saw acknowledged,
// at every moment; when the walk is over every acknowledged key reads
// that value on its active copy and on a replica. Run it under -race.
//
// The step list below is the seed of ROADMAP item 1's tier A (seeded
// in-process fault schedules): that generator draws from these steps
// and adds to them; it is not a second harness beside this one.
func TestRouteUnderTopologyChurn(t *testing.T) {
	const seed, clients, keysPerClient = 29, 4, 24
	c, _ := newTestCluster(t, 3, 1)
	ctx := context.Background()

	// gate lets a step stop the clients between ops. Only the crash
	// needs it: a write acknowledged by a node and not yet streamed to
	// its replica is lost when that node dies, by design of the
	// memory-first write path, and that is not what this test is about.
	var gate sync.RWMutex
	var stop atomic.Bool
	var ops, refused atomic.Int64
	acked := make([]map[string]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cl, err := c.OpenBucket("default")
		if err != nil {
			t.Fatal(err)
		}
		mine := map[string]string{}
		acked[i] = mine
		rng := rand.New(rand.NewSource(seed + int64(i)))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; !stop.Load(); n++ {
				key := fmt.Sprintf("c%d-k%02d", i, rng.Intn(keysPerClient))
				gate.RLock()
				var err error
				if rng.Intn(2) == 0 {
					value := fmt.Sprintf(`{"client":%d,"n":%d}`, i, n)
					if _, err = cl.Set(ctx, key, []byte(value), 0); err == nil {
						mine[key] = value
					}
				} else {
					it, gerr := cl.Get(ctx, key)
					want, written := mine[key]
					if gerr == nil && string(it.Value) != want {
						t.Errorf("seed %d: Get(%s) = %s, last acknowledged %s", seed, key, it.Value, want)
					}
					if written || !errors.Is(gerr, ErrKeyNotFound) {
						err = gerr
					}
				}
				gate.RUnlock()
				ops.Add(1)
				if err != nil {
					refused.Add(1)
					if !retryableRouteErr(err) {
						t.Errorf("seed %d: op on %s failed with %v, which no route loop returns", seed, key, err)
						return
					}
				}
			}
		}(i)
	}

	steps := []struct {
		name string
		do   func() error
	}{
		{"add node3", func() error { _, err := c.AddNode("node3", cmap.AllServices); return err }},
		{"rebalance it in", c.Rebalance},
		{"create a second bucket", func() error { return c.CreateBucket("other", BucketOptions{NumReplicas: 1}) }},
		{"sever the second bucket's replication", func() error { return c.SeverReplication("other") }},
		{"kill node1", func() error {
			gate.Lock()
			defer gate.Unlock()
			settle(t, c, 4)
			return c.Kill("node1")
		}},
		{"fail it over", func() error { return c.Failover("node1") }},
		{"rebalance over the survivors", c.Rebalance},
	}
	for _, step := range steps {
		before := ops.Load()
		if err := step.do(); err != nil {
			t.Fatalf("seed %d: %s: %v", seed, step.name, err)
		}
		// Every step is followed by traffic over the topology it left.
		waitUntil(t, "ops after "+step.name, func() bool { return ops.Load() >= before+50 || t.Failed() })
	}
	stop.Store(true)
	wg.Wait()
	t.Logf("seed %d: %d ops, %d refused after the route loop's retries", seed, ops.Load(), refused.Load())

	settle(t, c, 4)
	m, err := c.BucketMap("default")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := c.OpenBucket("default")
	if err != nil {
		t.Fatal(err)
	}
	for _, mine := range acked {
		for key, want := range mine {
			if it, err := cl.Get(ctx, key); err != nil || string(it.Value) != want {
				t.Errorf("seed %d: %s on its active copy: %s, %v; last acknowledged %s", seed, key, it.Value, err, want)
			}
			_, vbID := m.NodeForKey(key)
			replicas := m.Replicas(vbID)
			if len(replicas) != 1 || replicas[0] == "node1" {
				t.Fatalf("seed %d: vb %d has replicas %v after the last rebalance", seed, vbID, replicas)
			}
			vb, err := c.NodeVB(replicas[0], "default", vbID)
			if err != nil || vb == nil {
				t.Fatalf("seed %d: vb %d on %s: %v", seed, vbID, replicas[0], err)
			}
			if it, err := vb.Table.Get(key, 0); err != nil || string(it.Value) != want {
				t.Errorf("seed %d: %s on replica %s: %s, %v; last acknowledged %s", seed, key, replicas[0], it.Value, err, want)
			}
		}
	}
}
