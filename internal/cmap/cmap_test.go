package cmap

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestVBucketIDDeterministicAndInRange(t *testing.T) {
	f := func(key string) bool {
		a := VBucketID(key, NumVBuckets)
		b := VBucketID(key, NumVBuckets)
		return a == b && a >= 0 && a < NumVBuckets
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestVBucketIDGolden is the table VBucketID's comment promises: the
// partition of a key is a fact any client in any language can compute
// (CRC-32/IEEE of the key's bytes, bits 16..30, modulo the partition
// count). The ids were computed by the commit before VBucketID stopped
// copying the key; a change to the hash fails here. It allocates
// nothing, empty and 250-byte keys included.
func TestVBucketIDGolden(t *testing.T) {
	golden := []struct {
		key          string
		at64, at1024 int
	}{
		{"", 0, 0},
		{"a", 55, 183},
		{"user4316891766", 11, 395},
		{"user000042", 30, 990},
		{"airline_10", 41, 361},
		{"beer-sample::21st_amendment_brewery_cafe", 39, 167},
		{"ключ-κλειδί-键", 13, 13},
		{strings.Repeat("k", 250), 23, 151},
	}
	for _, g := range golden {
		if a, b := VBucketID(g.key, 64), VBucketID(g.key, 1024); a != g.at64 || b != g.at1024 {
			t.Errorf("VBucketID(%q) = %d of 64, %d of 1024; want %d, %d", g.key, a, b, g.at64, g.at1024)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		for _, g := range golden {
			VBucketID(g.key, 1024)
		}
	}); n != 0 {
		t.Errorf("VBucketID allocates %.1f times over the table, want 0", n)
	}
}

func TestVBucketIDSpread(t *testing.T) {
	// Keys should spread over partitions reasonably evenly.
	counts := make([]int, 64)
	r := rand.New(rand.NewSource(1))
	n := 64 * 200
	for i := 0; i < n; i++ {
		key := "doc-" + string(rune('a'+r.Intn(26))) + string(rune('a'+r.Intn(26))) + string(rune('0'+i%10)) + string(rune('0'+(i/10)%10)) + string(rune('0'+(i/100)%10)) + string(rune('0'+(i/1000)%10))
		counts[VBucketID(key, 64)]++
	}
	for vb, c := range counts {
		if c == 0 {
			t.Errorf("vbucket %d received no keys out of %d", vb, n)
		}
	}
}

func TestBuildBalancedInvariants(t *testing.T) {
	nodes := []NodeID{"n1", "n2", "n3", "n4"}
	m := BuildBalanced(1, nodes, 64, 2)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumReplicas != 2 {
		t.Fatalf("NumReplicas = %d", m.NumReplicas)
	}
	// Actives are evenly spread: 64/4 = 16 each.
	for _, n := range nodes {
		if got := len(m.ActiveVBuckets(n)); got != 16 {
			t.Errorf("node %s has %d actives, want 16", n, got)
		}
		if got := len(m.ReplicaVBuckets(n)); got != 32 {
			t.Errorf("node %s has %d replicas, want 32", n, got)
		}
	}
}

func TestBuildBalancedClampsReplicas(t *testing.T) {
	m := BuildBalanced(1, []NodeID{"a", "b"}, 16, 3)
	if m.NumReplicas != 1 {
		t.Errorf("replicas should clamp to nodes-1, got %d", m.NumReplicas)
	}
	m = BuildBalanced(1, []NodeID{"a"}, 16, 3)
	if m.NumReplicas != 0 {
		t.Errorf("single node should have 0 replicas, got %d", m.NumReplicas)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	m = BuildBalanced(1, []NodeID{"a", "b", "c", "d", "e", "f"}, 16, 9)
	if m.NumReplicas != MaxReplicas {
		t.Errorf("replicas should clamp to MaxReplicas, got %d", m.NumReplicas)
	}
}

func TestActiveAndReplicasDisjoint(t *testing.T) {
	m := BuildBalanced(1, []NodeID{"a", "b", "c"}, 48, 2)
	for vb := 0; vb < 48; vb++ {
		act := m.Active(vb)
		for _, r := range m.Replicas(vb) {
			if r == act {
				t.Fatalf("vb %d replica on same node as active", vb)
			}
		}
		if len(m.Replicas(vb)) != 2 {
			t.Fatalf("vb %d has %d replicas", vb, len(m.Replicas(vb)))
		}
	}
}

func TestNodeForKey(t *testing.T) {
	m := BuildBalanced(1, []NodeID{"a", "b", "c", "d"}, NumVBuckets, 1)
	node, vb := m.NodeForKey("user::1234")
	if node == "" {
		t.Fatal("no node for key")
	}
	if m.Active(vb) != node {
		t.Fatal("NodeForKey disagrees with Active")
	}
}

func TestFailoverPromotesReplica(t *testing.T) {
	m := BuildBalanced(1, []NodeID{"a", "b", "c"}, 24, 1)
	after := m.FailoverNode("b")
	if after.Rev != m.Rev+1 {
		t.Errorf("failover should bump rev: %d -> %d", m.Rev, after.Rev)
	}
	for vb := 0; vb < 24; vb++ {
		if m.Active(vb) == "b" {
			// Replica must have been promoted.
			want := m.Replicas(vb)[0]
			if got := after.Active(vb); got != want {
				t.Errorf("vb %d active after failover = %s, want promoted replica %s", vb, got, want)
			}
		} else if after.Active(vb) != m.Active(vb) {
			t.Errorf("vb %d active changed though node was alive", vb)
		}
		for _, r := range after.Replicas(vb) {
			if r == "b" {
				t.Errorf("vb %d still has replica on failed node", vb)
			}
		}
	}
}

func TestFailoverUnknownNodeIsNoop(t *testing.T) {
	m := BuildBalanced(1, []NodeID{"a", "b"}, 8, 1)
	if after := m.FailoverNode("zz"); after != m || after.Rev != 1 {
		t.Fatalf("unknown-node failover minted a map: rev %d -> %d, same map %v", m.Rev, after.Rev, after == m)
	}
	// A node already scrubbed from every chain is as good as unknown.
	once := m.FailoverNode("b")
	if once == m || once.Rev != 2 || once.Maps("b") {
		t.Fatalf("first failover: rev %d, same map %v, still maps b %v", once.Rev, once == m, once.Maps("b"))
	}
	if again := once.FailoverNode("b"); again != once || again.Rev != 2 {
		t.Fatalf("repeated failover minted a map: rev %d -> %d, same map %v", once.Rev, again.Rev, again == once)
	}
}

func TestFailoverLastCopyLost(t *testing.T) {
	m := BuildBalanced(1, []NodeID{"solo"}, 8, 0)
	after := m.FailoverNode("solo")
	for vb := 0; vb < 8; vb++ {
		if after.Active(vb) != "" {
			t.Fatal("active should be gone when last copy fails")
		}
	}
}

func TestChanged(t *testing.T) {
	m := BuildBalanced(1, []NodeID{"a", "b", "c"}, 6, 1) // vb: a,b  b,c  c,a  a,b  b,c  c,a
	if got := Changed(nil, m); len(got) != 6 {
		t.Errorf("Changed(nil, m) = %v, want every vBucket", got)
	}
	if got := Changed(m, m.Clone()); len(got) != 0 {
		t.Errorf("Changed(m, clone) = %v, want none", got)
	}
	// c holds a copy of every vBucket but 0 and 3.
	if got := Changed(m, m.FailoverNode("c")); !slices.Equal(got, []int{1, 2, 4, 5}) {
		t.Errorf("Changed after failing c = %v, want [1 2 4 5]", got)
	}
	if got := Changed(m, m.WithChain(3, "a", []NodeID{"b", "c"})); !slices.Equal(got, []int{3}) {
		t.Errorf("Changed after growing vb 3's chain = %v, want [3]", got)
	}
	// The same topology under another node order and other names for
	// the same slots compares by node ID, not by index.
	other := &Map{NumVBuckets: 2, NumReplicas: 1, Nodes: []NodeID{"b", "a"}, Chains: [][]int{{1, 0}, {0, -1}}}
	same := &Map{NumVBuckets: 2, NumReplicas: 1, Nodes: []NodeID{"a", "b", "x"}, Chains: [][]int{{0, 1}, {1, -1}}}
	if got := Changed(other, same); len(got) != 0 {
		t.Errorf("Changed across node orders = %v, want none", got)
	}
	same.Nodes[1] = "z"
	if got := Changed(other, same); !slices.Equal(got, []int{0, 1}) {
		t.Errorf("Changed after renaming b = %v, want [0 1]", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := BuildBalanced(1, []NodeID{"a", "b"}, 8, 1)
	cp := m.Clone()
	cp.Chains[0][0] = -1
	if m.Chains[0][0] == -1 {
		t.Fatal("Clone shares chain storage")
	}
}

func TestServiceSet(t *testing.T) {
	ss := ServiceSet(ServiceData | ServiceQuery)
	if !ss.Has(ServiceData) || !ss.Has(ServiceQuery) || ss.Has(ServiceIndex) {
		t.Error("ServiceSet.Has wrong")
	}
	if ss.String() != "data,query" {
		t.Errorf("String() = %q", ss.String())
	}
	if ServiceSet(0).String() != "none" {
		t.Error("empty set should print none")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	m := BuildBalanced(1, []NodeID{"a", "b", "c"}, 8, 1)
	m.Chains[3] = []int{0, 0}
	if m.Validate() == nil {
		t.Error("repeated node in chain should fail validation")
	}
	m = BuildBalanced(1, []NodeID{"a"}, 8, 0)
	m.Chains[0][0] = 7
	if m.Validate() == nil {
		t.Error("out-of-range index should fail validation")
	}
}

// TestQuickBalancedMapsAreValidAndFair: for arbitrary node counts and
// replica requests, BuildBalanced yields a structurally valid map with
// actives spread within one vBucket of perfectly even.
func TestQuickBalancedMapsAreValidAndFair(t *testing.T) {
	f := func(nNodes, nReplicas uint8) bool {
		n := int(nNodes%12) + 1
		r := int(nReplicas % 5)
		var nodes []NodeID
		for i := 0; i < n; i++ {
			nodes = append(nodes, NodeID(rune('a'+i)))
		}
		m := BuildBalanced(1, nodes, 96, r)
		if err := m.Validate(); err != nil {
			t.Logf("invalid: %v", err)
			return false
		}
		min, max := 1<<30, 0
		for _, id := range nodes {
			c := len(m.ActiveVBuckets(id))
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if max-min > 1 {
			t.Logf("unfair: %d..%d actives over %d nodes", min, max, n)
			return false
		}
		// Failover of any node keeps the map valid.
		after := m.FailoverNode(nodes[0])
		return after.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestWithChain pins the chain surgery rebalance publishes one vBucket
// at a time: the edited chain, the node list, the replica count, and
// that every other chain (and the receiver) is left alone.
func TestWithChain(t *testing.T) {
	base := BuildBalanced(7, []NodeID{"a", "b"}, 4, 1) // vb0: a,b  vb1: b,a ...
	cases := []struct {
		name         string
		active       NodeID
		replicas     []NodeID
		wantNodes    []NodeID
		wantReplicas int
		wantChain    []int // vb 0
		wantOther    []int // vb 1
	}{
		{"swap roles", "b", []NodeID{"a"}, []NodeID{"a", "b"}, 1, []int{1, 0}, []int{1, 0}},
		{"new node becomes active", "c", []NodeID{"a"}, []NodeID{"a", "b", "c"}, 1, []int{2, 0}, []int{1, 0}},
		{"fewer replicas pads with -1", "b", nil, []NodeID{"a", "b"}, 1, []int{1, -1}, []int{1, 0}},
		{"more replicas grows every chain", "a", []NodeID{"b", "c"}, []NodeID{"a", "b", "c"}, 2, []int{0, 1, 2}, []int{1, 0, -1}},
		{"no active", "", []NodeID{"b"}, []NodeID{"a", "b"}, 1, []int{-1, 1}, []int{1, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := base.Clone()
			got := base.WithChain(0, tc.active, tc.replicas)
			if got.Rev != base.Rev+1 {
				t.Errorf("Rev = %d, want %d", got.Rev, base.Rev+1)
			}
			if !slices.Equal(got.Nodes, tc.wantNodes) {
				t.Errorf("Nodes = %v, want %v", got.Nodes, tc.wantNodes)
			}
			if got.NumReplicas != tc.wantReplicas {
				t.Errorf("NumReplicas = %d, want %d", got.NumReplicas, tc.wantReplicas)
			}
			if !slices.Equal(got.Chains[0], tc.wantChain) {
				t.Errorf("Chains[0] = %v, want %v", got.Chains[0], tc.wantChain)
			}
			if !slices.Equal(got.Chains[1], tc.wantOther) {
				t.Errorf("Chains[1] = %v, want %v", got.Chains[1], tc.wantOther)
			}
			if err := got.Validate(); err != nil {
				t.Errorf("Validate: %v", err)
			}
			if !reflect.DeepEqual(base, before) {
				t.Error("WithChain modified its receiver")
			}
		})
	}
}

func TestHasReplica(t *testing.T) {
	m := BuildBalanced(1, []NodeID{"a", "b", "c"}, 3, 1) // vb0: a,b  vb1: b,c  vb2: c,a
	for _, tc := range []struct {
		vb   int
		node NodeID
		want bool
	}{
		{0, "b", true}, {0, "a", false}, {0, "c", false},
		{2, "a", true}, {1, "", false}, {9, "a", false},
	} {
		if got := m.HasReplica(tc.vb, tc.node); got != tc.want {
			t.Errorf("HasReplica(%d, %q) = %v, want %v", tc.vb, tc.node, got, tc.want)
		}
	}
}
