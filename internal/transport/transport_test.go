package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"couchgo/internal/cache"
	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/health"
	"couchgo/internal/vbucket"
)

// newServedCluster starts an in-process cluster behind a TCP server,
// returning the server and a smart client routed entirely over the
// wire.
func newServedCluster(t testing.TB, nReplicas int) (*core.Cluster, *Server, *core.Client) {
	t.Helper()
	return newServedBucket(t, core.BucketOptions{NumReplicas: nReplicas})
}

func newServedBucket(t testing.TB, opts core.BucketOptions) (*core.Cluster, *Server, *core.Client) {
	t.Helper()
	c, err := core.NewCluster(core.Config{Dir: t.TempDir(), NumVBuckets: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	nodes := 1 + opts.NumReplicas
	for i := 0; i < nodes; i++ {
		if _, err := c.AddNode(cmap.NodeID(fmt.Sprintf("node%d", i)), cmap.AllServices); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateBucket("default", opts); err != nil {
		t.Fatal(err)
	}
	// One server per node would need one port per node; for the wire
	// round-trip test a single node's server suffices, so use a
	// single-node cluster when opts.NumReplicas == 0.
	srv, err := Listen("127.0.0.1:0", ServerConfig{
		Cluster: c,
		Node:    "node0",
		Bucket:  "default",
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	pool := NewPool()
	t.Cleanup(pool.Close)
	router := NewRouter("default", []string{srv.Addr()}, pool)
	// Route every node of the in-process map to the one server; it
	// dispatches to node0, so only node0's vBuckets answer OK — the
	// single-node case routes everything there.
	return c, srv, core.NewClient(&rewriteRouter{inner: router, addr: srv.Addr()}, "default")
}

// rewriteRouter maps every node ID to one server address (the wire
// test serves a whole single-node cluster from one listener).
type rewriteRouter struct {
	inner *NetRouter
	addr  string
}

func (r *rewriteRouter) BucketMap() (*cmap.Map, error) { return r.inner.BucketMap() }
func (r *rewriteRouter) Conn(node cmap.NodeID) (core.NodeConn, error) {
	return r.inner.Conn(cmap.NodeID(r.addr))
}

func TestWireDurability(t *testing.T) {
	// Single node, ReplicateTo=1 can never be satisfied: the server
	// must hold the response until the durability timeout and ship the
	// canonical error back.
	_, _, cl := newServedCluster(t, 0)
	ctx := context.Background()
	_, err := cl.SetWithOptions(ctx, "k", []byte(`{}`), 0, 0, 0, core.DurabilityOptions{
		ReplicateTo: 1,
		Timeout:     150 * time.Millisecond,
	})
	if !errors.Is(err, vbucket.ErrTimeout) {
		t.Fatalf("durable Set on 1-node = %v, want vbucket.ErrTimeout", err)
	}

	// PersistTo succeeds once the flusher catches up.
	if _, err := cl.SetWithOptions(ctx, "k2", []byte(`{}`), 0, 0, 0, core.DurabilityOptions{
		PersistTo: true,
		Timeout:   5 * time.Second,
	}); err != nil {
		t.Fatalf("persist Set: %v", err)
	}
}

func TestWireNotMyVBucketRefresh(t *testing.T) {
	// Two servers front a two-node in-process cluster whose node IDs
	// are the servers' addresses, exactly as in the multi-process layer.
	// A client whose map routes everything to server 0 must be corrected
	// by the fat not-my-vbucket response (which ships the real map) and
	// land every op without ever asking for the map out of band.
	c, err := core.NewCluster(core.Config{Dir: t.TempDir(), NumVBuckets: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	var listeners []net.Listener
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners = append(listeners, ln)
		if _, err := c.AddNode(cmap.NodeID(ln.Addr().String()), cmap.AllServices); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateBucket("default", core.BucketOptions{NumReplicas: 0}); err != nil {
		t.Fatal(err)
	}
	var servers []*Server
	for _, ln := range listeners {
		srv := Serve(ln, ServerConfig{Cluster: c, Node: cmap.NodeID(ln.Addr().String()), Bucket: "default"})
		t.Cleanup(srv.Close)
		servers = append(servers, srv)
	}

	pool := NewPool()
	t.Cleanup(pool.Close)
	router := NewRouter("default", []string{servers[0].Addr()}, pool)
	cl := core.NewClient(router, "default")

	// Poison the router: an older map routing every vBucket to server
	// 0 only.
	good, err := c.BucketMap("default")
	if err != nil {
		t.Fatal(err)
	}
	bad := good.Clone()
	bad.Rev--
	for vb := range bad.Chains {
		bad.Chains[vb] = []int{0}
	}
	router.installMap(bad)

	before := mNotMyVB.Value()
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("route-%d", i)
		if _, err := cl.Set(ctx, key, []byte(`{}`), 0); err != nil {
			t.Fatalf("Set %s with stale map: %v", key, err)
		}
		if _, err := cl.Get(ctx, key); err != nil {
			t.Fatalf("Get %s: %v", key, err)
		}
	}
	if mNotMyVB.Value() == before {
		t.Fatal("expected at least one not-my-vbucket bounce with a poisoned map")
	}
	// The router must have adopted the server's (newer) map.
	m, err := router.BucketMap()
	if err != nil {
		t.Fatal(err)
	}
	if m.Rev <= bad.Rev {
		t.Fatalf("router map rev %d not refreshed past poisoned rev %d", m.Rev, bad.Rev)
	}
}

func TestProcessClusterFormationAndFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process-shaped cluster test is slow")
	}
	// Three ClusterNodes in one process, each with its own single-node
	// core cluster — the same wiring cbserver -kv-addr/-join uses.
	const numVB = 8
	mk := func(name string) *core.Cluster {
		c, err := core.NewCluster(core.Config{Dir: t.TempDir(), NumVBuckets: numVB})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if _, err := c.AddNode(cmap.NodeID(name), cmap.AllServices); err != nil {
			t.Fatal(err)
		}
		if err := c.CreateBucket("default", core.BucketOptions{NumReplicas: 1}); err != nil {
			t.Fatal(err)
		}
		return c
	}

	// The seed's watchdog, as cbserver runs it: ticking at heartbeat pace.
	wd := health.New(health.Options{Interval: 50 * time.Millisecond})
	wd.Start()
	defer wd.Stop()
	seed, err := StartNode(NodeOptions{
		Cluster: mk("local0"), Bucket: "default",
		KVAddr: "127.0.0.1:0", ClusterSize: 3,
		HeartbeatInterval: 50 * time.Millisecond,
		FailoverAfter:     250 * time.Millisecond,
		Watchdog:          wd,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()

	var peers []*ClusterNode
	for i := 1; i < 3; i++ {
		n, err := StartNode(NodeOptions{
			Cluster: mk(fmt.Sprintf("local%d", i)), Bucket: "default",
			KVAddr: "127.0.0.1:0", Join: seed.KVAddr(),
			HeartbeatInterval: 50 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, n)
	}
	defer func() {
		for _, p := range peers {
			p.Close()
		}
	}()

	// Wait for formation: every node reports the same minted map.
	waitFor(t, 10*time.Second, func() bool {
		m := seed.currentMap()
		if m == nil || len(m.Nodes) != 3 {
			return false
		}
		for _, p := range peers {
			pm := p.currentMap()
			if pm == nil || pm.Rev != m.Rev {
				return false
			}
		}
		return true
	})

	// Write through the seed's hybrid router with ReplicateTo=1 —
	// every write is acked only after a peer's replica applied it over
	// a socket.
	cl := core.NewClient(seed.Router(), "default")
	ctx := context.Background()
	const writes = 40
	for i := 0; i < writes; i++ {
		key := fmt.Sprintf("doc-%d", i)
		if _, err := cl.SetWithOptions(ctx, key, []byte(fmt.Sprintf(`{"i":%d}`, i)), 0, 0, 0, core.DurabilityOptions{
			ReplicateTo: 1, Timeout: 10 * time.Second,
		}); err != nil {
			t.Fatalf("durable Set %s: %v", key, err)
		}
	}

	// Kill one peer abruptly (close its listener and cluster node —
	// the in-process stand-in for kill -9).
	victim := peers[0]
	victimAddr := victim.KVAddr()
	victim.Close()

	// Auto-failover: the coordinator must mint a new map in which the
	// victim holds no vBucket. (FailoverNode keeps the dead node in the
	// Nodes list and scrubs it from the chains, like a real failover —
	// the node is out of service, not forgotten.)
	preRev := seed.currentMap().Rev
	waitFor(t, 15*time.Second, func() bool {
		m := seed.currentMap()
		if m == nil || m.Rev <= preRev {
			return false
		}
		for vb := 0; vb < m.NumVBuckets; vb++ {
			if string(m.Active(vb)) == victimAddr {
				return false
			}
			for _, r := range m.Replicas(vb) {
				if string(r) == victimAddr {
					return false
				}
			}
		}
		return true
	})

	// No acked write lost: every durable write must still be readable.
	for i := 0; i < writes; i++ {
		key := fmt.Sprintf("doc-%d", i)
		var got cache.Item
		var err error
		deadline := time.Now().Add(10 * time.Second)
		for {
			got, err = cl.Get(ctx, key)
			if err == nil || time.Now().After(deadline) {
				break
			}
			time.Sleep(50 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("Get %s after failover: %v", key, err)
		}
		if len(got.Value) == 0 {
			t.Fatalf("Get %s after failover: empty value", key)
		}
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if cond() {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("condition not met in time")
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestJoinerRetriesFastUntilAdmitted: a joiner that dials before the
// seed listens retries on a short backoff, not a full heartbeat later,
// so the cluster forms as soon as the seed is up.
func TestJoinerRetriesFastUntilAdmitted(t *testing.T) {
	mk := func(name string) *core.Cluster {
		c, err := core.NewCluster(core.Config{Dir: t.TempDir(), NumVBuckets: 4})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if _, err := c.AddNode(cmap.NodeID(name), cmap.AllServices); err != nil {
			t.Fatal(err)
		}
		if err := c.CreateBucket("default", core.BucketOptions{}); err != nil {
			t.Fatal(err)
		}
		return c
	}
	// Reserve the seed's address, then leave it closed for the joiner's
	// first dial.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	seedAddr := ln.Addr().String()
	ln.Close()
	const heartbeat = 30 * time.Second
	joiner, err := StartNode(NodeOptions{
		Cluster: mk("joiner"), Bucket: "default", KVAddr: "127.0.0.1:0",
		Join: seedAddr, HeartbeatInterval: heartbeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	time.Sleep(50 * time.Millisecond)
	seed, err := StartNode(NodeOptions{
		Cluster: mk("seed"), Bucket: "default", KVAddr: seedAddr,
		ClusterSize: 2, HeartbeatInterval: heartbeat,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	waitFor(t, 5*time.Second, func() bool { return len(joiner.currentMap().Nodes) == 2 })
}
