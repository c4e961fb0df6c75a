package core_test

import (
	"fmt"
	"slices"
	"strconv"
	"testing"

	"couchgo/internal/cmap"
	"couchgo/internal/events"
)

// TestDeciderTransitions walks one decider through the topology
// transitions it can make, once per control plane, with one table: the
// nodes of an in-process cluster, and three processes' worth of
// transport.StartNode. Both must publish the same sequence of maps
// (chains equal under the sorted-node-name bijection, the same Rev
// steps), and every member still in service must reconcile exactly the
// vBuckets a map changed — none at all when nothing did. The applier
// reconciles each of its nodes once per chain it found changed and
// journals that count, which is what the table reads.
//
// Two vBuckets, one replica, nodes A < B < C: vb0 = [A B], vb1 = [B C].
func TestDeciderTransitions(t *testing.T) {
	const A, B, C, none = 0, 1, 2, -1
	steps := []struct {
		name    string
		fail    int       // node to fail over, none for the formation row
		chains  [2][2]int // the map the step must leave, as node indexes
		rev     int64     // Rev step from the previous row
		changed int       // chains the step changes: reconciles per serving member
	}{
		{"form", none, [2][2]int{{A, B}, {B, C}}, 0, 0},
		{"fail a replica holder", C, [2][2]int{{A, B}, {B, none}}, 1, 1},
		{"fail an active holder", A, [2][2]int{{B, none}, {B, none}}, 1, 1},
		{"repeat the same failover", A, [2][2]int{{B, none}, {B, none}}, 0, 0},
		{"all copies lost", B, [2][2]int{{none, none}, {none, none}}, 1, 2},
	}

	sequences := map[string][]string{}
	for _, plane := range []struct {
		name string
		mk   func(*testing.T, int) *harness
	}{{"in-process", newLoopbackHarness}, {"sockets", newSocketHarness}} {
		t.Run(plane.name, func(t *testing.T) {
			h := plane.mk(t, 1)
			decided := func() *cmap.Map {
				m, err := h.clusters[h.decider].BucketMap(bucket)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			// reconciled sums the chains member i's applier has found
			// changed since the journal stood at seq. A cluster of several
			// nodes journals its applies under none.
			reconciled := func(i int, seq uint64) (n int) {
				for _, e := range events.Default.Events(events.Filter{SinceSeq: seq}) {
					if e.Msg == "applied cluster map" && e.Bucket == bucket && (e.Node == string(h.ids[i]) || e.Node == "") {
						k, _ := strconv.Atoi(e.Fields["changed"])
						n += k
					}
				}
				return n
			}
			prev := decided()
			for _, step := range steps {
				before := events.Default.LastSeq()
				if step.fail != none {
					if err := h.fail(step.fail); err != nil {
						t.Fatalf("%s: %v", step.name, err)
					}
				}
				m := decided()
				var got [2][2]int
				for vb := range got {
					got[vb] = [2]int{h.index(m.Active(vb)), none}
					if r := m.Replicas(vb); len(r) > 0 {
						got[vb][1] = h.index(r[0])
					}
				}
				if got != step.chains || m.Rev-prev.Rev != step.rev {
					t.Fatalf("%s: chains %v after a Rev step of %d, want %v after %d", step.name, got, m.Rev-prev.Rev, step.chains, step.rev)
				}
				if step.rev == 0 && m != prev {
					t.Errorf("%s: an unchanged topology was minted again", step.name)
				}
				sequences[plane.name] = append(sequences[plane.name], fmt.Sprint(got, m.Rev-prev.Rev))
				prev = m

				// Every serving member arrives at the map having reconciled
				// the changed vBuckets and no others; a member out of
				// service reconciles nothing.
				eventually(t, step.name, func() error {
					for i, id := range h.ids {
						want := step.changed
						if !h.serving(i) {
							want = 0
						} else if mm, _ := h.clusters[i].BucketMap(bucket); mm.Rev != m.Rev {
							return fmt.Errorf("%s holds map rev %d, want %d", id, mm.Rev, m.Rev)
						}
						if n := reconciled(i, before); n != want {
							return fmt.Errorf("%s reconciled %d vBuckets, want %d", id, n, want)
						}
					}
					return nil
				})
				// Handing a member the map it already holds is a no-op.
				after := events.Default.LastSeq()
				for i := range h.ids {
					if err := h.clusters[i].ApplyMap(bucket, m, nil); err != nil {
						t.Fatal(err)
					}
					if n := reconciled(i, after); n != 0 {
						t.Errorf("%s: re-applying map rev %d reconciled %d vBuckets", step.name, m.Rev, n)
					}
				}
			}
		})
	}
	if !slices.Equal(sequences["in-process"], sequences["sockets"]) {
		t.Errorf("the planes published different maps:\n in-process %v\n sockets    %v", sequences["in-process"], sequences["sockets"])
	}
}
