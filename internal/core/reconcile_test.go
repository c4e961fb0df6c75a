package core_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/events"
	"couchgo/internal/executor"
	"couchgo/internal/memcproto"
	"couchgo/internal/transport"
	"couchgo/internal/views"
)

const bucket = "default"

// harness is three data nodes A, B, C under one control plane: the
// nodes of one in-process cluster reconciled over loopback, or three
// single-node clusters behind transport.StartNode reconciled over
// sockets. Everything the transition table asserts goes through it, so
// the table itself never mentions a transport.
type harness struct {
	ids      [3]cmap.NodeID   // each node's identity in the map
	clusters [3]*core.Cluster // the cluster holding node i
	local    [3]cmap.NodeID   // node i's ID inside that cluster
	self     [3]cmap.NodeID   // the name that cluster applies maps under: empty in-process
	dirs     [3]string        // that cluster's Config.Dir
	client   *core.Client
	// decider is the index of the node whose cluster decides topology.
	decider int
	// fail takes node i out of service through the decider; serving
	// reports whether node i's cluster still applies the maps that follow.
	fail    func(i int) error
	serving func(i int) bool
	// apply brings every node to m through core's applier, vBucket 0's
	// new active first: a replica whose link opens before its source is
	// promoted adopts the pre-takeover failover log, which is legal but
	// not what the table pins.
	apply func(t *testing.T, m *cmap.Map)
}

func newLoopbackHarness(t *testing.T, replicas int) *harness {
	dir := t.TempDir()
	c, err := core.NewCluster(core.Config{Dir: dir, NumVBuckets: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	h := &harness{}
	for i := range h.ids {
		h.ids[i] = cmap.NodeID(fmt.Sprintf("node%d", i))
		h.clusters[i], h.local[i], h.dirs[i] = c, h.ids[i], dir
		if _, err := c.AddNode(h.ids[i], cmap.AllServices); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateBucket(bucket, core.BucketOptions{NumReplicas: replicas}); err != nil {
		t.Fatal(err)
	}
	h.fail = func(i int) error { return c.Failover(h.ids[i]) }
	// One process holds all three nodes: it applies every map, to the
	// nodes still up.
	h.serving = func(int) bool { return true }
	if h.client, err = c.OpenBucket(bucket); err != nil {
		t.Fatal(err)
	}
	src := c.LoopbackReplicaSource(bucket)
	// One process holds all three nodes: one apply, ordered by the
	// applier itself.
	h.apply = func(t *testing.T, m *cmap.Map) {
		t.Helper()
		if err := c.ApplyMap(bucket, m, "", src); err != nil {
			t.Fatalf("apply map rev %d: %v", m.Rev, err)
		}
	}
	return h
}

func newSocketHarness(t *testing.T, replicas int) *harness {
	h := &harness{}
	since := events.Default.LastSeq()
	var nodes [3]*transport.ClusterNode
	var clusters [3]*core.Cluster
	var dirs [3]string
	for i := range nodes {
		dirs[i] = t.TempDir()
		c, err := core.NewCluster(core.Config{Dir: dirs[i], NumVBuckets: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		clusters[i] = c
		local := cmap.NodeID(fmt.Sprintf("local%d", i))
		if _, err := c.AddNode(local, cmap.AllServices); err != nil {
			t.Fatal(err)
		}
		if err := c.CreateBucket(bucket, core.BucketOptions{NumReplicas: replicas}); err != nil {
			t.Fatal(err)
		}
		opts := transport.NodeOptions{
			Cluster: c, Bucket: bucket, KVAddr: "127.0.0.1:0",
			HeartbeatInterval: 50 * time.Millisecond,
			// No watchdog: the table, not the seed, decides every map after
			// the first.
		}
		if i == 0 {
			opts.ClusterSize = 3
		} else {
			opts.Join = nodes[0].KVAddr()
		}
		n, err := transport.StartNode(opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		nodes[i] = n
	}
	// Formation: every process has applied the minted three-node map
	// (the journal entry closes an apply). Its node order (sorted
	// addresses) names A, B, C.
	var formed *cmap.Map
	eventually(t, "cluster formation", func() error {
		for i, n := range nodes {
			m, err := clusters[i].BucketMap(bucket)
			if err != nil || len(m.Nodes) != 3 {
				return fmt.Errorf("%s: map %v, err %v", n.KVAddr(), m, err)
			}
			applied := false
			for _, e := range events.Default.Events(events.Filter{SinceSeq: since}) {
				applied = applied || e.Msg == "applied cluster map" && e.Node == n.KVAddr() && e.Fields["rev"] == fmt.Sprint(m.Rev)
			}
			if !applied {
				return fmt.Errorf("%s: still applying map rev %d", n.KVAddr(), m.Rev)
			}
			formed = m
		}
		return nil
	})
	var member [3]*transport.ClusterNode
	for i, id := range formed.Nodes {
		for j, n := range nodes {
			if n.KVAddr() == string(id) {
				h.ids[i], h.self[i], h.clusters[i], h.dirs[i], member[i] = id, id, clusters[j], dirs[j], n
				h.local[i] = cmap.NodeID(fmt.Sprintf("local%d", j))
				if j == 0 {
					h.decider = i // the seed
				}
			}
		}
	}
	// A failed member is a crashed process: it leaves before the seed's
	// decider hears of it, so no heartbeat of its fetches the map that
	// scrubbed it. The seed cannot leave; failed over, it still applies
	// what it publishes.
	var left [3]bool
	h.fail = func(i int) error {
		if i != h.decider {
			member[i].Close()
			left[i] = true
		}
		return h.clusters[h.decider].Decider().Failover(h.ids[i])
	}
	h.serving = func(i int) bool { return !left[i] }
	h.client = core.NewClient(nodes[0].Router(), bucket)
	pool := transport.NewPool()
	t.Cleanup(pool.Close)
	h.apply = func(t *testing.T, m *cmap.Map) {
		t.Helper()
		value, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		first := max(h.index(m.Active(0)), 0)
		for _, i := range []int{first, (first + 1) % 3, (first + 2) % 3} {
			// The seed's own push: SET_CLUSTER_MAP to the member.
			conn, err := pool.Get(string(h.ids[i]))
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			resp, err := conn.Roundtrip(ctx, &memcproto.Frame{
				Magic: memcproto.MagicReq, Opcode: memcproto.OpSetClusterMap,
				Key: []byte(bucket), Value: value,
			})
			cancel()
			if err != nil || resp.Status != memcproto.StatusOK {
				t.Fatalf("push map rev %d to %s: %v %v", m.Rev, h.ids[i], resp, err)
			}
		}
	}
	return h
}

// copyWant is what one node's copy of vBucket 0 must look like once a
// transition has settled.
type copyWant struct {
	state     string // "active", "replica", or "absent"
	flog      int    // failover-log entries (ignored when absent)
	link      string // "": none; "=": the link it had before the row; "A".."C": a new link pulling from that node
	takeovers int    // "vb takeover" events this row journaled for the copy
}

// TestReconcileTransitions walks one vBucket through every transition
// the reconciler performs, once per replica source, with one table.
// Rows run in order; each applies a map that edits only vBucket 0's
// chain (vBucket 1 keeps its formation chain throughout).
func TestReconcileTransitions(t *testing.T) {
	const A, B, C = 0, 1, 2
	rows := []struct {
		name  string
		chain []int // vBucket 0's chain as node indexes, empty = no copy anywhere
		// diverge severs replication and writes to the active only,
		// before the map is applied: the failover shape, where the
		// promoted copy is behind what index consumers have seen.
		diverge bool
		want    [3]copyWant
	}{
		{name: "same map re-applied", chain: []int{A, B, C}, want: [3]copyWant{
			{"active", 1, "", 0}, {"replica", 1, "=", 0}, {"replica", 1, "=", 0}}},
		{name: "mapped to unmapped", chain: []int{A, B}, want: [3]copyWant{
			{"active", 1, "", 0}, {"replica", 1, "=", 0}, {"absent", 0, "", 0}}},
		{name: "absent to replica", chain: []int{A, B, C}, want: [3]copyWant{
			{"active", 1, "", 0}, {"replica", 1, "=", 0}, {"replica", 1, "A", 0}}},
		{name: "replica to active, replica re-pointed, active unmapped", chain: []int{B, C}, diverge: true, want: [3]copyWant{
			{"absent", 0, "", 0}, {"active", 2, "", 1}, {"replica", 2, "B", 0}}},
		{name: "active to replica and replica to active", chain: []int{C, B}, want: [3]copyWant{
			{"absent", 0, "", 0}, {"replica", 3, "C", 0}, {"active", 3, "", 1}}},
		{name: "absent to active", chain: []int{A}, want: [3]copyWant{
			{"active", 1, "", 0}, {"absent", 0, "", 0}, {"absent", 0, "", 0}}},
		{name: "absent to replica of a fresh active", chain: []int{A, B}, want: [3]copyWant{
			{"active", 1, "", 0}, {"replica", 1, "A", 0}, {"absent", 0, "", 0}}},
		{name: "all copies lost", chain: nil, want: [3]copyWant{
			{"active", 1, "", 0}, {"replica", 1, "=", 0}, {"absent", 0, "", 0}}},
	}

	for _, src := range []struct {
		name string
		mk   func(*testing.T, int) *harness
	}{{"loopback", newLoopbackHarness}, {"sockets", newSocketHarness}} {
		t.Run(src.name, func(t *testing.T) {
			start := events.Default.LastSeq() // the journal is process-wide
			h := src.mk(t, 2)
			// Consumers whose re-attachment and rollback the rows observe:
			// a view (per node, detached on demotion) and a GSI index.
			for i, c := range h.clusters {
				if i > 0 && c == h.clusters[0] {
					break
				}
				if err := c.DefineView(bucket, views.Definition{Name: "byN", Map: views.MapSpec{Key: "doc.n"}}); err != nil {
					t.Fatal(err)
				}
				if _, err := c.Query("CREATE INDEX byN ON `default`(n)", executor.Options{}); err != nil {
					t.Fatal(err)
				}
			}
			m, err := h.clusters[A].BucketMap(bucket)
			if err != nil {
				t.Fatal(err)
			}
			h.settle(t, "formation", [3]copyWant{{"active", 1, "", 0}, {"replica", 1, "A", 0}, {"replica", 1, "A", 0}}, [3]any{}, start)
			h.write(t, m, "formation", 2)

			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					var before [3]any
					for i := range h.ids {
						before[i], _, _ = h.clusters[i].LinkOf(h.local[i], bucket, 0)
					}
					active := m.Active(0)
					ai := h.index(active)
					// Detach the active's views behind the reconciler's back:
					// if the copy stays active, only a re-attach brings them
					// back, and a re-applied map must not do that.
					if err := h.clusters[ai].DetachViews(h.local[ai], bucket, 0); err != nil {
						t.Fatal(err)
					}
					if row.diverge {
						h.diverge(t, m, ai)
					}
					mark := events.Default.LastSeq()

					var replicas []cmap.NodeID
					var next cmap.NodeID
					for i, n := range row.chain {
						if i == 0 {
							next = h.ids[n]
						} else {
							replicas = append(replicas, h.ids[n])
						}
					}
					m = m.WithChain(0, next, replicas)
					h.apply(t, m)
					h.settle(t, row.name, row.want, before, mark)

					if row.want[ai].state == "active" && h.viewsAttached(t, ai) {
						t.Errorf("%s stayed active and its consumers were re-attached", h.ids[ai])
					}
					if next != "" {
						h.write(t, m, row.name, min(len(replicas), 1))
					}
				})
			}
		})
	}
}

func (h *harness) index(id cmap.NodeID) int {
	for i, x := range h.ids {
		if x == id {
			return i
		}
	}
	return -1
}

// settle polls until every copy of vBucket 0 matches want, then checks
// what must already be true by then: dropped copies left no file, and
// each promotion journaled its takeover before any consumer rollback.
func (h *harness) settle(t *testing.T, stage string, want [3]copyWant, before [3]any, mark uint64) {
	t.Helper()
	eventually(t, stage, func() error {
		for i, w := range want {
			vb, err := h.clusters[i].NodeVB(h.local[i], bucket, 0)
			if err != nil {
				return err
			}
			link, source, alive := h.clusters[i].LinkOf(h.local[i], bucket, 0)
			name := string(rune('A' + i))
			switch {
			case w.state == "absent":
				if vb != nil {
					return fmt.Errorf("%s: copy is %s, want absent", name, vb.State())
				}
			case vb == nil:
				return fmt.Errorf("%s: copy absent, want %s", name, w.state)
			case vb.State().String() != w.state:
				return fmt.Errorf("%s: copy is %s, want %s", name, vb.State(), w.state)
			case len(vb.Producer().FailoverLog()) != w.flog:
				return fmt.Errorf("%s: failover log %v, want %d entries", name, vb.Producer().FailoverLog(), w.flog)
			}
			switch w.link {
			case "":
				if link != nil {
					return fmt.Errorf("%s: has a link from %s, want none", name, source)
				}
			case "=":
				if link == nil || link != before[i] || !alive {
					return fmt.Errorf("%s: link replaced or dead (alive=%v), want the one it had", name, alive)
				}
			default:
				if link == nil || link == before[i] || !alive || source != h.ids[w.link[0]-'A'] {
					return fmt.Errorf("%s: link from %q (alive=%v), want a new one from %s", name, source, alive, w.link)
				}
			}
		}
		return nil
	})
	for i, w := range want {
		file := filepath.Join(h.dirs[i], string(h.local[i]), "data", bucket, "vb_0000.couch")
		if _, err := os.Stat(file); w.state == "absent" && !os.IsNotExist(err) {
			t.Errorf("%s: %c holds no copy but %s is still there (%v)", stage, 'A'+i, file, err)
		}
		var takeovers []uint64
		for _, e := range events.Default.Events(events.Filter{Type: events.VBucket, SinceSeq: mark}) {
			if e.Node == string(h.local[i]) && e.VB == 0 && strings.HasPrefix(e.Msg, "vb takeover") {
				takeovers = append(takeovers, e.Seq)
			}
		}
		if len(takeovers) != w.takeovers {
			t.Errorf("%s: %c journaled %d takeovers, want %d", stage, 'A'+i, len(takeovers), w.takeovers)
		}
		if len(takeovers) == 0 {
			continue
		}
		for _, e := range events.Default.Events(events.Filter{Type: events.FeedEvent, SinceSeq: mark}) {
			if e.VB == 0 && e.Seq < takeovers[0] {
				t.Errorf("%s: feed event %q (seq %d) precedes the takeover (seq %d)", stage, e.Msg, e.Seq, takeovers[0])
			}
		}
	}
}

func (h *harness) viewsAttached(t *testing.T, i int) bool {
	t.Helper()
	stats, err := h.clusters[i].FeedStats(bucket)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range stats {
		if st.Service == "views" && st.Node == string(h.local[i]) {
			if _, ok := st.Processed[0]; ok {
				return true
			}
		}
	}
	return false
}

// write stores a few documents in vBucket 0 through the smart client,
// each acknowledged by replicateTo replicas, and reads them back.
func (h *harness) write(t *testing.T, m *cmap.Map, stage string, replicateTo int) {
	t.Helper()
	ctx := context.Background()
	for n, i := 0, 0; n < 5; i++ {
		key := fmt.Sprintf("%s-%d", stage, i)
		if cmap.VBucketID(key, m.NumVBuckets) != 0 {
			continue
		}
		n++
		if _, err := h.client.SetWithOptions(ctx, key, []byte(`{"n": 1}`), 0, 0, 0, core.DurabilityOptions{
			ReplicateTo: replicateTo, Timeout: 10 * time.Second,
		}); err != nil {
			t.Fatalf("%s: Set %s (ReplicateTo %d): %v", stage, key, replicateTo, err)
		}
		if _, err := h.client.Get(ctx, key); err != nil {
			t.Fatalf("%s: Get %s: %v", stage, key, err)
		}
	}
}

// diverge leaves the active of vBucket 0 (node ai) ahead of its
// replicas, with its index consumers caught up to it: every replica
// acknowledges one last write, replication is severed, and further
// writes land on the active alone.
func (h *harness) diverge(t *testing.T, m *cmap.Map, ai int) {
	t.Helper()
	h.write(t, m, "pre-sever", len(m.Replicas(0)))
	for _, c := range h.clusters {
		if err := c.SeverReplication(bucket); err != nil {
			t.Fatal(err)
		}
	}
	h.write(t, m, "divergent", 0)
	if _, err := h.clusters[ai].Query("SELECT COUNT(*) AS c FROM `default` WHERE n >= 0",
		executor.Options{Consistency: executor.RequestPlus}); err != nil {
		t.Fatal(err)
	}
}

func eventually(t *testing.T, what string, cond func() error) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		err := cond()
		if err == nil {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: %v", what, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
