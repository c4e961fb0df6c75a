package core

import (
	"cmp"
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"couchgo/internal/cmap"
)

// TestDeciderTransitions runs every sequence of decider events (Form over
// Live; Heard, Failover of each node; a clock advance past the timeout
// then FailoverSilent; Rebalance over Live) on a real Decider with a test
// clock, breadth first, until no event reaches a new state (chains,
// failed set, heard/silent marks), once per control plane: the library
// rebalances a vBucket at a time through a step function, a networked
// seed publishes the target whole. Both seams check each map
// (deciderRun.check), so the first failure printed is a shortest.
func TestDeciderTransitions(t *testing.T) {
	depth := map[bool]int{false: math.MaxInt, true: 6}[raceDetector] // -race slows the replays ~10x
	for _, plane := range []string{"in-process", "sockets"} {
		t.Run(plane, func(t *testing.T) {
			for _, s := range []deciderRun{{nodes: 3, vbs: 4, replicas: 1}, {nodes: 3, vbs: 8, replicas: 2},
				{nodes: 4, vbs: 4, replicas: 2}, {nodes: 4, vbs: 8, replicas: 1}} {
				s.stepped = plane == "in-process"
				events := deciderEvents(s.nodes)
				seen := map[string]bool{s.replay(events, nil).key(): true}
				frontier, level := [][]int{nil}, 0
				for ; level < depth && len(frontier) > 0; level++ {
					var next [][]int
					for _, path := range frontier {
						for e := range events {
							p := append(slices.Clip(path), e)
							if r := s.replay(events, p); r.err != nil {
								t.Fatalf("%d nodes, %d vBuckets, %d replicas: %s: %v", s.nodes, s.vbs, s.replicas, strings.Join(r.ran, " → "), r.err)
							} else if k := r.key(); !seen[k] {
								seen[k] = true
								next = append(next, p)
							}
						}
					}
					frontier = next
				}
				t.Logf("%d nodes, %d vBuckets, %d replicas: %d states in %d levels, %d unexpanded", s.nodes, s.vbs, s.replicas, len(seen), level, len(frontier))
			}
		})
	}
}

const deciderTimeout = time.Second

type deciderEvent struct {
	name string
	run  func(r *deciderRun)
}

func deciderEvents(nodes int) []deciderEvent {
	events := []deciderEvent{
		{"form", func(r *deciderRun) {
			if r.d.Map("b") == nil {
				r.fail(r.d.Form("b", r.d.Live(), r.vbs, r.replicas))
			}
		}},
		{"silence", func(r *deciderRun) {
			r.clock, r.failover = r.clock.Add(2*deciderTimeout), true
			r.d.FailoverSilent(deciderTimeout) // journals a failed publish, which r.err holds
		}},
		{"rebalance", func(r *deciderRun) { r.fail(r.d.Rebalance(r.d.Live(), r.step)) }},
	}
	for i := range nodes {
		id := cmap.NodeID(fmt.Sprintf("n%d", i))
		events = append(events, deciderEvent{"heard " + string(id), func(r *deciderRun) { r.d.Heard(id) }},
			deciderEvent{"fail over " + string(id), func(r *deciderRun) { r.failover = true; r.fail(r.d.Failover(id)) }})
	}
	return events
}

// deciderRun is one decider (bucket "b", nodes n0, n1, ...) on one path.
type deciderRun struct {
	nodes, vbs, replicas int
	stepped              bool // rebalance through step, not whole
	step                 func(bucket string, vb int, next *cmap.Map) error
	d                    *Decider
	clock                time.Time
	ran                  []string // the events run
	failover, last       bool     // the running event fails nodes over; it ends the path
	err                  error    // the first invariant broken
}

// replay runs the events of path on a new decider of the shape s.
func (s deciderRun) replay(events []deciderEvent, path []int) *deciderRun {
	r := &s
	r.d = newDecider(func(_ string, m *cmap.Map) error { return r.apply(m, -1) }, &published[cmap.NodeID, *Node]{})
	r.d.now = func() time.Time { return r.clock }
	if r.stepped {
		r.step = func(_ string, vb int, next *cmap.Map) error { return r.apply(next, vb) }
	}
	for i, e := range path {
		if r.failover, r.last = false, i == len(path)-1; r.err == nil {
			r.ran = append(r.ran, events[e].name)
			events[e].run(r)
		}
	}
	return r
}

func (r *deciderRun) fail(err error) { r.err = cmp.Or(r.err, err) }

// apply is both seams: it checks m as the successor of the current map,
// the map of vBucket step's rebalance step (-1: none), and installs it.
func (r *deciderRun) apply(m *cmap.Map, step int) error {
	prev := r.d.Map("b")
	if err := r.check(prev, m, step); err != nil {
		r.fail(fmt.Errorf("map rev %d: %w\n  was %s\n  now %s", m.Rev, err, chains(prev), chains(m)))
	} else if _, ok := r.d.install("b", m); !ok {
		r.fail(fmt.Errorf("map rev %d was not installed", m.Rev))
	}
	return r.err
}

// check returns the first invariant m breaks. Each map is the next
// revision and changes a chain, a rebalance step only its vBucket's, so
// the others keep their one active. Each vBucket has one active on a
// heard, unfailed node, or an empty chain if its previous chain had no
// unfailed node. A chain names no failed node, no node twice and at most
// the bucket's replicas; a failover leaves it as it was less the failed.
func (r *deciderRun) check(prev, m *cmap.Map, step int) error {
	changed := cmap.Changed(prev, m)
	switch err := m.Validate(); {
	case !r.last:
		return nil // checked when this prefix of the path was first run
	case err != nil:
		return err
	case len(changed) == 0:
		return fmt.Errorf("an unchanged topology was minted again")
	case step >= 0 && !slices.Equal(changed, []int{step}):
		return fmt.Errorf("the step for vb %d changes the chains of vbs %v", step, changed)
	case m.Rev != cmp.Or(prev, &cmap.Map{}).Rev+1:
		return fmt.Errorf("is not the revision after %d", cmp.Or(prev, &cmap.Map{}).Rev)
	}
	r.d.mu.Lock()
	heard, failed := maps.Clone(r.d.heard), maps.Clone(r.d.failed)
	r.d.mu.Unlock()
	for vb := range m.NumVBuckets {
		chain, was := members(m, vb), members(prev, vb)
		if m.Active(vb) == "" && (len(chain) > 0 || slices.ContainsFunc(was, func(id cmap.NodeID) bool { return !failed[id] })) {
			return fmt.Errorf("vb %d has no active; its chain was %v, failed %v", vb, was, failed)
		}
		for i, id := range chain {
			if _, ok := heard[id]; !ok || failed[id] || slices.Index(chain, id) != i || i > r.replicas {
				return fmt.Errorf("vb %d has chain %v: %s heard %v, failed %v, replica %d of %d", vb, chain, id, ok, failed[id], i, r.replicas)
			}
		}
		if want := slices.DeleteFunc(slices.Clone(was), func(id cmap.NodeID) bool { return failed[id] }); r.failover && !slices.Equal(chain, want) {
			return fmt.Errorf("vb %d failed over from %v to %v, want %v", vb, was, chain, want)
		}
	}
	return nil
}

// members lists the nodes of vb's chain in order (none for a nil map).
func members(m *cmap.Map, vb int) []cmap.NodeID {
	if m == nil {
		return nil
	}
	return slices.DeleteFunc(append([]cmap.NodeID{m.Active(vb)}, m.Replicas(vb)...), func(id cmap.NodeID) bool { return id == "" })
}

// chains prints every chain slot by slot, "-" for an empty one.
func chains(m *cmap.Map) string {
	if m == nil {
		return "none"
	}
	out, names := make([][]cmap.NodeID, len(m.Chains)), append([]cmap.NodeID{"-"}, m.Nodes...)
	for vb, chain := range m.Chains {
		for _, idx := range chain {
			out[vb] = append(out[vb], names[idx+1])
		}
	}
	return fmt.Sprint(out)
}

// key is the run's state: chains, failed set and heard/silent marks.
func (r *deciderRun) key() string {
	r.d.mu.Lock()
	defer r.d.mu.Unlock()
	k := chains(r.d.Map("b"))
	for i := range r.nodes {
		id := cmap.NodeID(fmt.Sprintf("n%d", i))
		at, ok := r.d.heard[id]
		k += fmt.Sprint(" ", ok, ok && r.clock.Sub(at) > deciderTimeout, r.d.failed[id])
	}
	return k
}
