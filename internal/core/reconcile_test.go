package core_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
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
	ids      [3]cmap.NodeID   // each node's one name, in its cluster and in the map
	clusters [3]*core.Cluster // the cluster holding node i
	dirs     [3]string        // that cluster's Config.Dir
	client   *core.Client
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
		h.clusters[i], h.dirs[i] = c, dir
		if _, err := c.AddNode(h.ids[i], cmap.AllServices); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.CreateBucket(bucket, core.BucketOptions{NumReplicas: replicas}); err != nil {
		t.Fatal(err)
	}
	if h.client, err = c.OpenBucket(bucket); err != nil {
		t.Fatal(err)
	}
	src := c.LoopbackReplicaSource(bucket)
	// One process holds all three nodes: one apply, ordered by the
	// applier itself.
	h.apply = func(t *testing.T, m *cmap.Map) {
		t.Helper()
		if err := c.ApplyMap(bucket, m, src); err != nil {
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
		// The table decides every map after the first: a member it does
		// not fail over keeps heartbeating, so the seed's detector never
		// fires.
		c, err := core.NewCluster(core.Config{Dir: dirs[i], NumVBuckets: 2,
			HeartbeatInterval: 50 * time.Millisecond, FailoverTimeout: 250 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		clusters[i] = c
		if err := c.CreateBucket(bucket, core.BucketOptions{NumReplicas: replicas}); err != nil {
			t.Fatal(err)
		}
		opts := transport.NodeOptions{Cluster: c, Bucket: bucket, KVAddr: "127.0.0.1:0"}
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
	for i, id := range formed.Nodes {
		for j, n := range nodes {
			if n.KVAddr() == string(id) {
				h.ids[i], h.clusters[i], h.dirs[i] = id, clusters[j], dirs[j]
			}
		}
	}
	var err error
	if h.client, err = clusters[0].OpenBucket(bucket); err != nil {
		t.Fatal(err)
	}
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
// chain (vBucket 1 keeps its formation chain throughout). Every member
// reconciles the one chain a row changes, and none when it changes
// nothing or the map is handed to it again: the applier journals the
// count it reconciled each of its nodes for.
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

			prev := []int{A, B, C}
			for _, row := range rows {
				t.Run(row.name, func(t *testing.T) {
					var before [3]any
					for i := range h.ids {
						before[i], _, _ = h.clusters[i].LinkOf(h.ids[i], bucket, 0)
					}
					active := m.Active(0)
					ai := h.index(active)
					// Detach the active's views behind the reconciler's back:
					// if the copy stays active, only a re-attach brings them
					// back, and a re-applied map must not do that.
					if err := h.clusters[ai].DetachViews(h.ids[ai], bucket, 0); err != nil {
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
					changed := map[bool]int{false: 1}[slices.Equal(row.chain, prev)]
					prev = row.chain
					eventually(t, row.name, func() error { return h.reconciled(m, mark, changed) })
					mark = events.Default.LastSeq()
					h.apply(t, m)
					if err := h.reconciled(m, mark, 0); err != nil {
						t.Errorf("re-applying the map: %v", err)
					}

					if row.want[ai].state == "active" && h.viewsAttached(t, ai) {
						t.Errorf("%s stayed active and its consumers were re-attached", h.ids[ai])
					}
					if next != "" {
						h.write(t, m, row.name, min(len(replicas), 1))
					}
				})
			}
			h.clusters[C].Leave() // a member that has left applies no map, however it changes
			mark := events.Default.LastSeq()
			if err := errors.Join(h.clusters[C].ApplyMap(bucket, m.WithChain(1, h.ids[A], nil), nil), h.reconciled(m, mark, 0)); err != nil {
				t.Errorf("a member that left applied a map: %v", err)
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

// reconciled reports a member not at m, or whose applier has journaled
// other than want chains reconciled since the journal stood at seq (a
// cluster of several nodes journals its applies under none).
func (h *harness) reconciled(m *cmap.Map, seq uint64, want int) error {
	for i, id := range h.ids {
		n := 0
		for _, e := range events.Default.Events(events.Filter{SinceSeq: seq}) {
			if e.Msg == "applied cluster map" && e.Bucket == bucket && (e.Node == string(id) || e.Node == "") {
				k, _ := strconv.Atoi(e.Fields["changed"])
				n += k
			}
		}
		if held, _ := h.clusters[i].BucketMap(bucket); held.Rev != m.Rev || n != want {
			return fmt.Errorf("%s holds map rev %d, reconciled %d vBuckets; want rev %d, %d", id, held.Rev, n, m.Rev, want)
		}
	}
	return nil
}

// settle polls until every copy of vBucket 0 matches want, then checks
// what must already be true by then: dropped copies left no file, and
// each promotion journaled its takeover before any consumer rollback.
func (h *harness) settle(t *testing.T, stage string, want [3]copyWant, before [3]any, mark uint64) {
	t.Helper()
	eventually(t, stage, func() error {
		for i, w := range want {
			vb, err := h.clusters[i].NodeVB(h.ids[i], bucket, 0)
			if err != nil {
				return err
			}
			link, source, alive := h.clusters[i].LinkOf(h.ids[i], bucket, 0)
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
		file := filepath.Join(h.dirs[i], string(h.ids[i]), "data", bucket, "vb_0000.couch")
		if _, err := os.Stat(file); w.state == "absent" && !os.IsNotExist(err) {
			t.Errorf("%s: %c holds no copy but %s is still there (%v)", stage, 'A'+i, file, err)
		}
		var takeovers []uint64
		for _, e := range events.Default.Events(events.Filter{Type: events.VBucket, SinceSeq: mark}) {
			if e.Node == string(h.ids[i]) && e.VB == 0 && strings.HasPrefix(e.Msg, "vb takeover") {
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
		if st.Service == "views" && st.Node == string(h.ids[i]) {
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
