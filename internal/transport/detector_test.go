package transport

import (
	"slices"
	"testing"
	"time"

	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/events"
)

// TestSeedFailsOverSilentMembers is core's TestFailoverSilent table on a
// networked seed and its members, each its own one-node core.Cluster
// whose node goes by its KV address: the seed's heartbeat loop hears
// itself and its members where their heartbeats arrive, and fails over a
// mapped member silent for failoverHeartbeats heartbeats, once.
func TestSeedFailsOverSilentMembers(t *testing.T) {
	if testing.Short() {
		t.Skip("forms a multi-process-shaped cluster per row")
	}
	const beat, failoverHeartbeats = 50 * time.Millisecond, 5
	start := func(t *testing.T, join string, size int, beat time.Duration) *ClusterNode {
		cfg := core.Config{Dir: t.TempDir(), NumVBuckets: 8, HeartbeatInterval: beat}
		if join == "" {
			cfg.FailoverTimeout = failoverHeartbeats * beat
		}
		c, err := core.NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if err := c.CreateBucket("default", core.BucketOptions{NumReplicas: 1}); err != nil {
			t.Fatal(err)
		}
		n, err := StartNode(NodeOptions{Cluster: c, Bucket: "default", KVAddr: "127.0.0.1:0",
			Join: join, ClusterSize: size})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		return n
	}
	kill := func(i int) func(*testing.T, []*ClusterNode) (cmap.NodeID, int) {
		return func(t *testing.T, nodes []*ClusterNode) (cmap.NodeID, int) {
			nodes[i].Close()
			return cmap.NodeID(nodes[i].KVAddr()), 0
		}
	}
	rows := []struct {
		name    string
		beat    time.Duration
		members int // joiners the seed forms the cluster with
		// act returns the node to watch and the process whose map shows it.
		act    func(*testing.T, []*ClusterNode) (cmap.NodeID, int)
		failed bool // whether the watched node is failed over
	}{
		{"a killed member", beat, 2, kill(1), true},
		// Formation takes a fraction of the first beat.
		{"a member killed before the seed's first tick", 300 * time.Millisecond, 2, kill(1), true},
		{"a member failed over by hand", beat, 2, func(t *testing.T, nodes []*ClusterNode) (cmap.NodeID, int) {
			id, _ := kill(1)(t, nodes)
			if err := nodes[0].opts.Cluster.Decider().Failover(id); err != nil {
				t.Fatal(err)
			}
			return id, 0
		}, false},
		// A member's cluster leaves Config.FailoverTimeout zero: nothing
		// fails the dead seed over.
		{"a zero timeout: the seed killed", beat, 2, func(t *testing.T, nodes []*ClusterNode) (cmap.NodeID, int) {
			id, _ := kill(0)(t, nodes)
			return id, 1
		}, false},
		{"a seed alone", beat, 0, func(_ *testing.T, nodes []*ClusterNode) (cmap.NodeID, int) {
			return cmap.NodeID(nodes[0].KVAddr()), 0
		}, false},
		{"a late member, unmapped", beat, 2, func(t *testing.T, nodes []*ClusterNode) (cmap.NodeID, int) {
			late := start(t, nodes[0].KVAddr(), 0, beat)
			id := cmap.NodeID(late.KVAddr())
			waitFor(t, 10*time.Second, func() bool { return slices.Contains(nodes[0].opts.Cluster.Decider().Live(), id) })
			late.Close()
			return id, 0
		}, false},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			mark := events.Default.LastSeq()
			nodes := []*ClusterNode{start(t, "", row.members+1, row.beat)}
			for i := 1; i <= row.members; i++ {
				nodes = append(nodes, start(t, nodes[0].KVAddr(), 0, row.beat))
			}
			waitFor(t, 10*time.Second, func() bool {
				for _, n := range nodes {
					if m := n.currentMap(); len(m.Nodes) != len(nodes) || m.Rev != nodes[0].currentMap().Rev {
						return false
					}
				}
				return true
			})
			// The heard set holds map names only.
			live := nodes[0].opts.Cluster.Decider().Live()
			if slices.Sort(live); !slices.Equal(live, nodes[0].currentMap().Nodes) {
				t.Fatalf("Live() = %v after formation, want the map's nodes %v", live, nodes[0].currentMap().Nodes)
			}
			watch, observer := row.act(t, nodes)
			before := nodes[observer].currentMap()
			if row.failed {
				waitFor(t, 10*time.Second, func() bool {
					return !nodes[observer].currentMap().Maps(watch) && len(autoFailovers(watch, mark)) > 0
				})
				// Detected on the first tick past the timeout: 5 heartbeats
				// plus one tick, and a beat of scheduling slack.
				silence, err := time.ParseDuration(autoFailovers(watch, mark)[0].Fields["silence"])
				if limit := (failoverHeartbeats + 2) * row.beat; err != nil || silence > limit {
					t.Errorf("failed over after %v of silence (%v), want at most %v", silence, err, limit)
				}
				before = nodes[observer].currentMap()
			}
			time.Sleep(3 * failoverHeartbeats * beat)
			if m := nodes[observer].currentMap(); m.Rev != before.Rev {
				t.Errorf("map rev %d -> %d with nothing left to fail over", before.Rev, m.Rev)
			}
			want := 0
			if row.failed {
				want = 1
			}
			if n := len(autoFailovers(watch, mark)); n != want {
				t.Errorf("%d auto-failover entries for %s, want %d", n, watch, want)
			}
			for _, e := range events.Default.Events(events.Filter{Type: events.Topology, SinceSeq: mark}) {
				if e.Msg == "cluster map push failed" {
					t.Errorf("push failed: %v", e.Fields)
				}
			}
		})
	}
}

// autoFailovers lists the "auto-failover" entries for a node since seq.
func autoFailovers(node cmap.NodeID, seq uint64) (out []events.Event) {
	for _, e := range events.Default.Events(events.Filter{Type: events.Topology, SinceSeq: seq}) {
		if e.Msg == "auto-failover" && e.Node == string(node) {
			out = append(out, e)
		}
	}
	return out
}
