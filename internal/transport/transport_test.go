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
	"couchgo/internal/memcproto"
	"couchgo/internal/vbucket"
	"couchgo/internal/xdcr"
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
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, ServerConfig{Cluster: c, Node: "node0", Bucket: "default"})
	t.Cleanup(srv.Close)

	pool := NewPool()
	t.Cleanup(pool.Close)
	router := NewRouter("default", []string{addrOf(srv)}, pool)
	// Route every node of the in-process map to the one server; it
	// dispatches to node0, so only node0's vBuckets answer OK — the
	// single-node case routes everything there.
	return c, srv, core.NewClient(&rewriteRouter{inner: router, addr: addrOf(srv)}, "default")
}

// addrOf is the server's bound listen address.
func addrOf(s *Server) string { return s.ln.Addr().String() }

// rewriteRouter maps every node ID to one server address (the wire
// test serves a whole single-node cluster from one listener).
type rewriteRouter struct {
	inner *NetRouter
	addr  string
}

func (r *rewriteRouter) Route(key string) (core.Hop, error) {
	h, err := r.inner.Route(key)
	if err == nil {
		h.Conn = netConn{addr: r.addr, pool: r.inner.pool, sink: r.inner}
	}
	return h, err
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
	router := NewRouter("default", []string{addrOf(servers[0])}, pool)
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
	// core cluster — the same wiring and configuration cbserver
	// -kv-addr/-join uses.
	const numVB = 8
	mk := func() *core.Cluster {
		c, err := core.NewCluster(core.Config{Dir: t.TempDir(), NumVBuckets: numVB,
			HeartbeatInterval: 50 * time.Millisecond, FailoverTimeout: 250 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if err := c.CreateBucket("default", core.BucketOptions{NumReplicas: 1}); err != nil {
			t.Fatal(err)
		}
		return c
	}

	seed, err := StartNode(NodeOptions{Cluster: mk(), Bucket: "default", KVAddr: "127.0.0.1:0", ClusterSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()

	var peers []*ClusterNode
	for i := 1; i < 3; i++ {
		n, err := StartNode(NodeOptions{Cluster: mk(), Bucket: "default", KVAddr: "127.0.0.1:0", Join: seed.KVAddr()})
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

	// Write through the seed's own client with ReplicateTo=1 — every
	// write is acked only after a peer's replica applied it over a
	// socket.
	cl, err := seed.opts.Cluster.OpenBucket("default")
	if err != nil {
		t.Fatal(err)
	}
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
	const heartbeat = 30 * time.Second
	mk := func() *core.Cluster {
		c, err := core.NewCluster(core.Config{Dir: t.TempDir(), NumVBuckets: 4, HeartbeatInterval: heartbeat})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
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
	joiner, err := StartNode(NodeOptions{Cluster: mk(), Bucket: "default", KVAddr: "127.0.0.1:0", Join: seedAddr})
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	time.Sleep(50 * time.Millisecond)
	seed, err := StartNode(NodeOptions{Cluster: mk(), Bucket: "default", KVAddr: seedAddr, ClusterSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()
	waitFor(t, 5*time.Second, func() bool { return len(joiner.currentMap().Nodes) == 2 })
}

// TestNothingAckedBeforeFormation: until the seed's formed map arrives a
// process's node holds no copy, so a write that reaches it first is
// refused with NOT_MY_VBUCKET, not acknowledged on a copy formation then
// drops or demotes. Every write acknowledged at any time reads back.
func TestNothingAckedBeforeFormation(t *testing.T) {
	const numVB, writes = 16, 32
	mk := func() *core.Cluster {
		c, err := core.NewCluster(core.Config{Dir: t.TempDir(), NumVBuckets: numVB, HeartbeatInterval: 50 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if err := c.CreateBucket("default", core.BucketOptions{NumReplicas: 1}); err != nil {
			t.Fatal(err)
		}
		return c
	}
	seed, err := StartNode(NodeOptions{Cluster: mk(), Bucket: "default", KVAddr: "127.0.0.1:0", ClusterSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer seed.Close()

	// A conn that sends every vBucket to the seed, one wire Set per key,
	// no retry.
	pool := NewPool()
	defer pool.Close()
	conn := netConn{addr: seed.KVAddr(), pool: pool}
	ctx := context.Background()
	acked := map[string]string{}
	for i := 0; i < writes; i++ {
		key, value := fmt.Sprintf("early-%d", i), fmt.Sprintf(`{"early":%d}`, i)
		_, err := conn.Do(ctx, cmap.VBucketID(key, numVB), core.Op{Code: memcproto.OpSet, Key: key, Value: []byte(value)})
		if err == nil {
			acked[key] = value
		} else if !errors.Is(err, vbucket.ErrNotMyVBucket) {
			t.Errorf("Set %s before formation: %v, want not-my-vbucket", key, err)
		}
	}
	if len(acked) > 0 {
		t.Errorf("%d of %d Sets acknowledged before the cluster formed", len(acked), writes)
	}

	joiner, err := StartNode(NodeOptions{Cluster: mk(), Bucket: "default", KVAddr: "127.0.0.1:0", Join: seed.KVAddr()})
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	waitFor(t, 10*time.Second, func() bool {
		m := seed.currentMap()
		return len(m.Nodes) == 2 && joiner.currentMap().Rev == m.Rev
	})
	cl, err := seed.opts.Cluster.OpenBucket("default")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < writes; i++ {
		key, value := fmt.Sprintf("late-%d", i), fmt.Sprintf(`{"late":%d}`, i)
		if _, err := cl.Set(ctx, key, []byte(value), 0); err != nil {
			t.Fatalf("Set %s after formation: %v", key, err)
		}
		acked[key] = value
	}
	unreadable := 0
	for key, value := range acked {
		if it, err := cl.Get(ctx, key); err != nil || string(it.Value) != value {
			unreadable++
			t.Logf("acknowledged %s reads %q, %v", key, it.Value, err)
		}
	}
	if unreadable > 0 {
		t.Errorf("%d of %d acknowledged writes unreadable after formation", unreadable, len(acked))
	}
}

// keysByActive returns n keys whose vBucket m makes each node active,
// in the order of nodes.
func keysByActive(m *cmap.Map, n int, nodes ...*ClusterNode) [][]string {
	keys := make([][]string, len(nodes))
	for i, full := 0, 0; full < len(nodes); i++ {
		key := fmt.Sprintf("key-%d", i)
		active, _ := m.NodeForKey(key)
		for j, node := range nodes {
			if string(active) == node.self && len(keys[j]) < n {
				if keys[j] = append(keys[j], key); len(keys[j]) == n {
					full++
				}
			}
		}
	}
	return keys
}

// TestMemberClientReachesEveryKey: in a pair of members, each member's
// own OpenBucket client Sets and Gets keys active on either member: its
// own by function call, its peer's over the route table's wire conn.
func TestMemberClientReachesEveryKey(t *testing.T) {
	nodes, clusters := processPair(t, 8)
	keys := keysByActive(nodes[0].currentMap(), 4, nodes[0], nodes[1])
	ctx := context.Background()
	for i, c := range clusters {
		cl, err := c.OpenBucket("default")
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range append(keys[0], keys[1]...) {
			value := fmt.Sprintf(`{"by":%d}`, i)
			if _, err := cl.Set(ctx, key, []byte(value), 0); err != nil {
				t.Fatalf("member %d: Set %s: %v", i, key, err)
			}
			if it, err := cl.Get(ctx, key); err != nil || string(it.Value) != value {
				t.Fatalf("member %d: Get %s = %q, %v; want %s", i, key, it.Value, err, value)
			}
		}
	}
}

// TestFatNotMyVBucketReachesTheApplier: a map that rides a peer's
// NOT_MY_VBUCKET reply goes to the member's applier. The joiner alone
// applies a newer map that moves one of its active vBuckets to the seed
// (as if the seed's push reached it first); the seed heartbeats no one,
// so only the reply can tell it. An op from the seed on that vBucket
// succeeds, and the seed's map advances.
func TestFatNotMyVBucketReachesTheApplier(t *testing.T) {
	nodes, clusters := processPair(t, 4)
	seed, joiner := nodes[0], nodes[1]
	m := joiner.currentMap()
	key := keysByActive(m, 1, joiner)[0][0]
	_, vb := m.NodeForKey(key)
	moved := m.WithChain(vb, cmap.NodeID(seed.self), []cmap.NodeID{cmap.NodeID(joiner.self)})
	if err := joiner.apply("default", moved); err != nil {
		t.Fatal(err)
	}
	if rev := seed.currentMap().Rev; rev != m.Rev {
		t.Fatalf("seed map rev %d before the op, want %d", rev, m.Rev)
	}
	cl, err := clusters[0].OpenBucket("default")
	if err != nil {
		t.Fatal(err)
	}
	before := mNotMyVB.Value()
	if _, err := cl.Set(context.Background(), key, []byte(`{"moved":true}`), 0); err != nil {
		t.Fatalf("Set %s on the moved vb %d: %v", key, vb, err)
	}
	if rev := seed.currentMap().Rev; rev != moved.Rev {
		t.Errorf("seed map rev %d after the op, want %d", rev, moved.Rev)
	}
	if mNotMyVB.Value() == before {
		t.Error("the op took no not-my-vbucket bounce")
	}
}

// TestXDCRIntoAProcessCluster: XDCR from an in-process cluster into a
// pair of members, through an external smart client; every replicated
// document then reads back through each member's own client.
func TestXDCRIntoAProcessCluster(t *testing.T) {
	src, err := core.NewCluster(core.Config{Dir: t.TempDir(), NumVBuckets: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(src.Close)
	for _, id := range []cmap.NodeID{"west-0", "west-1"} {
		if _, err := src.AddNode(id, cmap.AllServices); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.CreateBucket("default", core.BucketOptions{}); err != nil {
		t.Fatal(err)
	}
	nodes, clusters := processPair(t, 8)
	pool := NewPool()
	t.Cleanup(pool.Close)
	dest := core.NewClient(NewRouter("default", []string{nodes[0].KVAddr()}, pool), "default")
	r, err := xdcr.Start(src, "default", dest, xdcr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Stop()

	scl, err := src.OpenBucket("default")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const docs = 24
	for i := 0; i < docs; i++ {
		if _, err := scl.Set(ctx, fmt.Sprintf("doc-%d", i), []byte(fmt.Sprintf(`{"i":%d}`, i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return r.Stats().Applied >= docs })
	for m, c := range clusters {
		cl, err := c.OpenBucket("default")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < docs; i++ {
			key, want := fmt.Sprintf("doc-%d", i), fmt.Sprintf(`{"i":%d}`, i)
			if it, err := cl.Get(ctx, key); err != nil || string(it.Value) != want {
				t.Errorf("member %d: Get %s = %q, %v; want %s", m, key, it.Value, err, want)
			}
		}
	}
}
