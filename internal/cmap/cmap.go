// Package cmap implements the cluster map: the assignment of the
// bucket's 1024 logical partitions (vBuckets) to cluster nodes, the
// CRC32 key-hashing scheme smart clients use to route requests
// (paper §4.1, Figure 5), and the balanced-map computation the
// orchestrator uses for rebalance (§4.3.1).
package cmap

import (
	"fmt"
	"hash/crc32"
	"sort"
	"unsafe"
)

// NumVBuckets is the fixed partition count of a Couchbase bucket. The
// paper: "Each bucket is split into 1024 logical partitions called
// vBuckets. This is not a configurable number." We keep it configurable
// in Map for unit tests but default to this constant everywhere else.
const NumVBuckets = 1024

// MaxReplicas is the maximum replica count: "A bucket can be replicated
// up to 3 times, giving the user up to 4 copies of their data."
const MaxReplicas = 3

// NodeID identifies a cluster node (host:port or a symbolic name).
type NodeID string

// Service identifies one of the multi-dimensional-scaling services a
// node can run (§4.4).
type Service int

const (
	ServiceData Service = 1 << iota
	ServiceIndex
	ServiceQuery
	ServiceFTS
	ServiceAnalytics
)

// ServiceSet is a bitmask of services.
type ServiceSet int

// Has reports whether the set contains s.
func (ss ServiceSet) Has(s Service) bool { return int(ss)&int(s) != 0 }

// String lists the services in the set.
func (ss ServiceSet) String() string {
	names := []struct {
		s Service
		n string
	}{
		{ServiceData, "data"}, {ServiceIndex, "index"}, {ServiceQuery, "query"},
		{ServiceFTS, "fts"}, {ServiceAnalytics, "analytics"},
	}
	out := ""
	for _, e := range names {
		if ss.Has(e.s) {
			if out != "" {
				out += ","
			}
			out += e.n
		}
	}
	if out == "" {
		return "none"
	}
	return out
}

// AllServices is the uniform "every service on every node" topology.
const AllServices = ServiceSet(ServiceData | ServiceIndex | ServiceQuery | ServiceFTS | ServiceAnalytics)

// VBucketID computes the partition for a document key. This is the
// memcached/Couchbase scheme: CRC32 of the key, upper 16 bits, masked,
// modulo the partition count, so any client in any language agrees
// (TestVBucketIDGolden pins the table). Every op of every client calls
// it, and []byte(key) is a heap copy here (the slice escapes through
// crc32's per-architecture dispatch), so the checksum reads the
// string's own bytes; crc32 does not write to what it is given.
func VBucketID(key string, numVBuckets int) int {
	crc := crc32.ChecksumIEEE(unsafe.Slice(unsafe.StringData(key), len(key)))
	return int((crc>>16)&0x7fff) % numVBuckets
}

// Map is a versioned assignment of vBuckets to nodes. Index 0 of each
// chain is the active copy; the rest are replicas (-1 = no copy).
// Maps are immutable once published; rebalance builds a new Map with a
// higher Rev and streams it to nodes and smart clients.
type Map struct {
	Rev         int64
	NumVBuckets int
	NumReplicas int
	// Nodes running the data service, in a stable order.
	Nodes []NodeID
	// Chains[vb][0] = active node index into Nodes, Chains[vb][1..] =
	// replica node indexes; -1 means the copy does not exist.
	Chains [][]int
}

// Clone returns a deep copy with the same Rev.
func (m *Map) Clone() *Map {
	cp := &Map{
		Rev:         m.Rev,
		NumVBuckets: m.NumVBuckets,
		NumReplicas: m.NumReplicas,
		Nodes:       append([]NodeID(nil), m.Nodes...),
		Chains:      make([][]int, len(m.Chains)),
	}
	for i, c := range m.Chains {
		cp.Chains[i] = append([]int(nil), c...)
	}
	return cp
}

// Active returns the node holding the active copy of vb, or "" if none.
func (m *Map) Active(vb int) NodeID {
	if vb < 0 || vb >= len(m.Chains) {
		return ""
	}
	return m.nodeAt(m.Chains[vb], 0)
}

// Replicas returns the nodes holding replica copies of vb.
func (m *Map) Replicas(vb int) []NodeID {
	if vb < 0 || vb >= len(m.Chains) {
		return nil
	}
	var out []NodeID
	for _, i := range m.Chains[vb][1:] {
		if i >= 0 && i < len(m.Nodes) {
			out = append(out, m.Nodes[i])
		}
	}
	return out
}

// NodeForKey routes a key to the node holding its active vBucket.
func (m *Map) NodeForKey(key string) (NodeID, int) {
	vb := VBucketID(key, m.NumVBuckets)
	return m.Active(vb), vb
}

// ActiveVBuckets returns the vBuckets whose active copy lives on node.
func (m *Map) ActiveVBuckets(node NodeID) []int {
	var out []int
	for vb := range m.Chains {
		if m.Active(vb) == node {
			out = append(out, vb)
		}
	}
	return out
}

// HasReplica reports whether node holds a replica copy of vb.
func (m *Map) HasReplica(vb int, node NodeID) bool {
	for _, r := range m.Replicas(vb) {
		if r == node {
			return true
		}
	}
	return false
}

// ReplicaVBuckets returns the vBuckets with a replica copy on node.
func (m *Map) ReplicaVBuckets(node NodeID) []int {
	var out []int
	for vb := range m.Chains {
		if m.HasReplica(vb, node) {
			out = append(out, vb)
		}
	}
	return out
}

func (m *Map) nodeIndex(n NodeID) int {
	for i, id := range m.Nodes {
		if id == n {
			return i
		}
	}
	return -1
}

// BuildBalanced computes an even assignment of actives and replicas
// over nodes. Actives are striped round-robin; replica i of vBucket vb
// goes to the (i+1)-th next node in the ring, so no chain repeats a
// node. numReplicas is clamped to MaxReplicas and to len(nodes)-1.
func BuildBalanced(rev int64, nodes []NodeID, numVBuckets, numReplicas int) *Map {
	sorted := append([]NodeID(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if numReplicas > MaxReplicas {
		numReplicas = MaxReplicas
	}
	if numReplicas > len(sorted)-1 {
		numReplicas = len(sorted) - 1
	}
	if numReplicas < 0 {
		numReplicas = 0
	}
	m := &Map{
		Rev:         rev,
		NumVBuckets: numVBuckets,
		NumReplicas: numReplicas,
		Nodes:       sorted,
		Chains:      make([][]int, numVBuckets),
	}
	n := len(sorted)
	for vb := 0; vb < numVBuckets; vb++ {
		chain := make([]int, numReplicas+1)
		if n == 0 {
			for i := range chain {
				chain[i] = -1
			}
		} else {
			for i := range chain {
				chain[i] = (vb + i) % n
			}
		}
		m.Chains[vb] = chain
	}
	return m
}

// FailoverNode produces a successor map with node removed: for every
// vBucket whose active lived on node, the first live replica is
// promoted ("the cluster will promote one of the replica partitions to
// active status"); replica slots on node are vacated. vBuckets with no
// surviving copy keep an empty (-1) chain — data loss, as in the real
// system when replicas are exhausted. A node that holds no chain slot
// (unknown, or already scrubbed) changes nothing, and the receiver
// itself comes back: an unchanged topology keeps its Rev.
func (m *Map) FailoverNode(node NodeID) *Map {
	dead := m.nodeIndex(node)
	if dead < 0 || !m.mapsIndex(dead) {
		return m
	}
	out := m.Clone()
	out.Rev++
	for vb, chain := range out.Chains {
		// Drop the dead node from the chain, preserving order.
		nc := make([]int, 0, len(chain))
		for _, idx := range chain {
			if idx != dead {
				nc = append(nc, idx)
			}
		}
		for len(nc) < len(chain) {
			nc = append(nc, -1)
		}
		out.Chains[vb] = nc
	}
	return out
}

// mapsIndex reports whether any chain names Nodes[idx].
func (m *Map) mapsIndex(idx int) bool {
	for _, chain := range m.Chains {
		for _, i := range chain {
			if i == idx {
				return true
			}
		}
	}
	return false
}

// Maps reports whether node holds an active or replica copy of any
// vBucket.
func (m *Map) Maps(node NodeID) bool {
	idx := m.nodeIndex(node)
	return idx >= 0 && m.mapsIndex(idx)
}

// WithChain produces a successor map in which vb's chain is active
// followed by replicas; every other chain is unchanged. Nodes the map
// has not seen are appended to Nodes ("" means no copy), and a chain
// longer than NumReplicas+1 grows the replica count map-wide, padding
// the other chains with empty slots — rebalance publishes its target
// one vBucket at a time through this.
func (m *Map) WithChain(vb int, active NodeID, replicas []NodeID) *Map {
	out := m.Clone()
	out.Rev++
	chain := make([]int, 0, out.NumReplicas+1)
	for _, id := range append([]NodeID{active}, replicas...) {
		idx := out.nodeIndex(id)
		if idx < 0 && id != "" {
			out.Nodes = append(out.Nodes, id)
			idx = len(out.Nodes) - 1
		}
		chain = append(chain, idx)
	}
	for len(chain) < out.NumReplicas+1 {
		chain = append(chain, -1)
	}
	if len(chain) > out.NumReplicas+1 {
		out.NumReplicas = len(chain) - 1
		for i, c := range out.Chains {
			for len(c) < len(chain) {
				c = append(c, -1)
			}
			out.Chains[i] = c
		}
	}
	out.Chains[vb] = chain
	return out
}

// Changed lists the vBuckets of next whose chain names different nodes
// than in prev, compared by node ID because the two maps need not share
// a node order. A nil prev changes every vBucket. It is what a node
// reconciles when next replaces prev.
func Changed(prev, next *Map) []int {
	var out []int
	for vb, chain := range next.Chains {
		if prev == nil || vb >= len(prev.Chains) {
			out = append(out, vb)
			continue
		}
		old := prev.Chains[vb]
		for pos := 0; pos < len(chain) || pos < len(old); pos++ {
			if prev.nodeAt(old, pos) != next.nodeAt(chain, pos) {
				out = append(out, vb)
				break
			}
		}
	}
	return out
}

// nodeAt names the node at one chain position, "" for an empty slot or
// a position past the chain's end.
func (m *Map) nodeAt(chain []int, pos int) NodeID {
	if pos >= len(chain) || chain[pos] < 0 || chain[pos] >= len(m.Nodes) {
		return ""
	}
	return m.Nodes[chain[pos]]
}

// Validate checks structural invariants: chain lengths, index bounds,
// and no node repeated within a chain. It returns the first violation.
func (m *Map) Validate() error {
	if len(m.Chains) != m.NumVBuckets {
		return fmt.Errorf("cmap: %d chains for %d vbuckets", len(m.Chains), m.NumVBuckets)
	}
	for vb, chain := range m.Chains {
		if len(chain) != m.NumReplicas+1 {
			return fmt.Errorf("cmap: vb %d chain length %d, want %d", vb, len(chain), m.NumReplicas+1)
		}
		seen := map[int]bool{}
		for _, idx := range chain {
			if idx < -1 || idx >= len(m.Nodes) {
				return fmt.Errorf("cmap: vb %d node index %d out of range", vb, idx)
			}
			if idx >= 0 {
				if seen[idx] {
					return fmt.Errorf("cmap: vb %d repeats node %d in chain", vb, idx)
				}
				seen[idx] = true
			}
		}
	}
	return nil
}
