package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"couchgo/internal/cmap"
)

// An in-process client routes by the route table published with its
// bucket's map (loopback.go). Each test here moves a key's active copy
// and reads the key back through the client: on a table that is not
// republished with the move, the read keeps going to the old copy until
// its retries run out.

// routedTo is the copy the client's route table names for key, checked
// against the copy the map's active node holds.
func routedTo(t *testing.T, c *Cluster, cl *Client, key string) cmap.NodeID {
	t.Helper()
	hop, err := cl.router.Route(key)
	if err != nil {
		t.Fatalf("Route(%s): %v", key, err)
	}
	want, err := c.NodeVB(hop.Node, "default", hop.VB)
	if err != nil || hop.Copy == nil || hop.Copy != want {
		t.Fatalf("Route(%s) names %s's copy %p, which holds %p (%v)", key, hop.Node, hop.Copy, want, err)
	}
	return hop.Node
}

func readBack(t *testing.T, cl *Client, key, want string) {
	t.Helper()
	it, err := cl.Get(context.Background(), key)
	if err != nil || string(it.Value) != want {
		t.Fatalf("Get(%s) = %q, %v; want %q", key, it.Value, err, want)
	}
}

func TestRouteFollowsFailover(t *testing.T) {
	c, cl := newTestCluster(t, 3, 1)
	ctx := context.Background()
	if _, err := cl.SetWithOptions(ctx, "k", []byte("v"), 0, 0, 0, DurabilityOptions{ReplicateTo: 1}); err != nil {
		t.Fatal(err)
	}
	was := routedTo(t, c, cl, "k")
	if err := c.Failover(was); err != nil {
		t.Fatal(err)
	}
	readBack(t, cl, "k", "v")
	if now := routedTo(t, c, cl, "k"); now == was {
		t.Fatalf("still routed to the failed-over %s", was)
	}
}

func TestRouteFollowsAMoveAndBack(t *testing.T) {
	c, cl := newTestCluster(t, 2, 1)
	ctx := context.Background()
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("key%02d", i)
		if _, err := cl.Set(ctx, keys[i], []byte(keys[i]), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AddNode("node2", cmap.AllServices); err != nil {
		t.Fatal(err)
	}
	if err := c.Rebalance(); err != nil {
		t.Fatal(err)
	}
	moved := ""
	for _, key := range keys {
		if routedTo(t, c, cl, key) == "node2" {
			moved = key
			break
		}
	}
	if moved == "" {
		t.Fatal("the rebalance moved no key to node2")
	}
	readBack(t, cl, moved, moved)
	// And back: a rebalance over the first two nodes builds a new copy
	// where the moved one came from.
	c.rebalanceMu.Lock()
	err := c.topo.Rebalance([]cmap.NodeID{"node0", "node1"}, c.stepVB)
	c.rebalanceMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	readBack(t, cl, moved, moved)
	if back := routedTo(t, c, cl, moved); back == "node2" {
		t.Fatalf("%s still routed to node2", moved)
	}
}

// TestRouteRetriesAKilledNode: an op on a killed node's copy is retried
// as ErrNodeDown until its context ends, fails with both errors, and
// goes to the promoted copy once the node is failed over.
func TestRouteRetriesAKilledNode(t *testing.T) {
	c, cl := newTestCluster(t, 2, 1)
	ctx := context.Background()
	if _, err := cl.SetWithOptions(ctx, "k", []byte("v"), 0, 0, 0, DurabilityOptions{ReplicateTo: 1}); err != nil {
		t.Fatal(err)
	}
	was := routedTo(t, c, cl, "k")
	if err := c.Kill(was); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.router.Route("k"); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Route to the killed %s: %v, want ErrNodeDown", was, err)
	}
	short, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if _, err := cl.Get(short, "k"); !errors.Is(err, context.DeadlineExceeded) || !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Get on the killed node's copy: %v, want it retried until the deadline, ErrNodeDown named", err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := cl.Get(ctx, "k")
		got <- err
	}()
	time.Sleep(5 * time.Millisecond) // into its retries
	if err := c.Failover(was); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("Get across the failover: %v", err)
	}
	readBack(t, cl, "k", "v")
}
