// Package btree implements the ordered index structure shared by the
// view engine and the GSI indexer: an in-memory B+tree over
// collation-encoded byte keys.
//
// Its distinguishing feature reproduces the paper's view-index design
// (§4.3.3): "A key characteristic of a view index is that it stores the
// pre-computed aggregates defined in the Reduce function as a part of
// the index tree. This allows for very fast aggregation at query time."
// Every interior node carries a reduce annotation maintained on each
// mutation; ReduceRange answers aggregate queries over a key range in
// O(log n) by combining whole-subtree annotations.
package btree

import "bytes"

const (
	maxItems = 32 // max entries per leaf / children per interior node
)

// Reducer computes the pre-aggregated annotations. Map converts one
// leaf entry to a partial aggregate; Merge combines partials. Merge
// must be associative; Zero is the identity (empty range result). A
// Reducer holds no state: gsi.Tree calls ReduceRange under a read lock
// it shares, so Map and Merge run on several goroutines at once (every
// reducer in internal/views is an empty struct).
type Reducer interface {
	Map(key []byte, val any) any
	Merge(parts ...any) any
	Zero() any
}

// Tree is a B+tree mapping unique byte keys to values. The zero-value
// Tree is not usable; call New. It has no lock of its own: reads change
// nothing and may share the caller's lock, Set and Delete need it
// exclusively.
type Tree struct {
	root    *node
	reducer Reducer // nil = no annotations maintained
}

type node struct {
	leaf     bool
	keys     [][]byte
	vals     []any   // leaf entries
	children []*node // interior children
	reduce   any     // annotation over the whole subtree
}

// New creates an empty tree. reducer may be nil when range-reduce
// queries are not needed (plain GSI indexes).
func New(reducer Reducer) *Tree {
	return &Tree{root: &node{leaf: true}, reducer: reducer}
}

// Get returns the value for key.
func (t *Tree) Get(key []byte) (any, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n, key)]
	}
	i, ok := leafIndex(n, key)
	if !ok {
		return nil, false
	}
	return n.vals[i], true
}

// childIndex picks the child to descend into: the last child whose
// separator key is <= key. Interior layout: children[0], keys[0],
// children[1], keys[1], ... keys[i] is the smallest key in
// children[i+1]'s subtree.
func childIndex(n *node, key []byte) int {
	i := 0
	for i < len(n.keys) && bytes.Compare(n.keys[i], key) <= 0 {
		i++
	}
	return i
}

// leafIndex finds key's position in a leaf (exact or insertion point).
func leafIndex(n *node, key []byte) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if c := bytes.Compare(n.keys[mid], key); c < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(n.keys) && bytes.Equal(n.keys[lo], key)
}

// Set inserts or replaces key's value. It reports whether the key was
// newly inserted.
func (t *Tree) Set(key []byte, val any) bool {
	key = append([]byte(nil), key...)
	inserted, split := t.insert(t.root, key, val)
	if split != nil {
		old := t.root
		t.root = &node{
			keys:     [][]byte{split.key},
			children: []*node{old, split.right},
		}
		t.annotate(t.root)
	}
	return inserted
}

type splitResult struct {
	key   []byte
	right *node
}

func (t *Tree) insert(n *node, key []byte, val any) (bool, *splitResult) {
	if n.leaf {
		i, found := leafIndex(n, key)
		if found {
			n.vals[i] = val
			t.annotate(n)
			return false, t.maybeSplit(n)
		}
		n.keys = append(n.keys, nil)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, nil)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = val
		t.annotate(n)
		return true, t.maybeSplit(n)
	}
	ci := childIndex(n, key)
	inserted, split := t.insert(n.children[ci], key, val)
	if split != nil {
		n.keys = append(n.keys, nil)
		copy(n.keys[ci+1:], n.keys[ci:])
		n.keys[ci] = split.key
		n.children = append(n.children, nil)
		copy(n.children[ci+2:], n.children[ci+1:])
		n.children[ci+1] = split.right
	}
	t.annotate(n)
	return inserted, t.maybeSplit(n)
}

func (t *Tree) maybeSplit(n *node) *splitResult {
	if n.leaf {
		if len(n.keys) <= maxItems {
			return nil
		}
		mid := len(n.keys) / 2
		right := &node{
			leaf: true,
			keys: append([][]byte(nil), n.keys[mid:]...),
			vals: append([]any(nil), n.vals[mid:]...),
		}
		n.keys = n.keys[:mid]
		n.vals = n.vals[:mid]
		t.annotate(n)
		t.annotate(right)
		return &splitResult{key: right.keys[0], right: right}
	}
	if len(n.children) <= maxItems {
		return nil
	}
	mid := len(n.children) / 2
	sepKey := n.keys[mid-1]
	right := &node{
		keys:     append([][]byte(nil), n.keys[mid:]...),
		children: append([]*node(nil), n.children[mid:]...),
	}
	n.keys = n.keys[:mid-1]
	n.children = n.children[:mid]
	t.annotate(n)
	t.annotate(right)
	return &splitResult{key: sepKey, right: right}
}

// Delete removes key, reporting whether it existed. Underflowed nodes
// are not rebalanced (empty ones are removed); the tree stays correct
// and, under the steady churn of index maintenance, acceptably shallow.
func (t *Tree) Delete(key []byte) bool {
	deleted := t.del(t.root, key)
	// Collapse a root with a single child.
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	return deleted
}

func (t *Tree) del(n *node, key []byte) bool {
	if n.leaf {
		i, found := leafIndex(n, key)
		if !found {
			return false
		}
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.vals = append(n.vals[:i], n.vals[i+1:]...)
		t.annotate(n)
		return true
	}
	ci := childIndex(n, key)
	deleted := t.del(n.children[ci], key)
	if deleted {
		child := n.children[ci]
		empty := (child.leaf && len(child.keys) == 0) || (!child.leaf && len(child.children) == 0)
		if empty && len(n.children) > 1 {
			n.children = append(n.children[:ci], n.children[ci+1:]...)
			if ci == 0 {
				n.keys = n.keys[1:]
			} else {
				n.keys = append(n.keys[:ci-1], n.keys[ci:]...)
			}
		}
		t.annotate(n)
	}
	return deleted
}

func (t *Tree) annotate(n *node) {
	if t.reducer == nil {
		return
	}
	if n.leaf {
		parts := make([]any, len(n.keys))
		for i := range n.keys {
			parts[i] = t.reducer.Map(n.keys[i], n.vals[i])
		}
		n.reduce = t.reducer.Merge(parts...)
		return
	}
	parts := make([]any, len(n.children))
	for i, c := range n.children {
		parts[i] = c.reduce
	}
	n.reduce = t.reducer.Merge(parts...)
}

// Ascend visits entries with lo <= key < hi in order (nil = unbounded).
// Return false from fn to stop.
func (t *Tree) Ascend(lo, hi []byte, fn func(key []byte, val any) bool) {
	t.ascend(t.root, lo, hi, fn)
}

func (t *Tree) ascend(n *node, lo, hi []byte, fn func([]byte, any) bool) bool {
	if n.leaf {
		start := 0
		if lo != nil {
			start, _ = leafIndex(n, lo)
		}
		for i := start; i < len(n.keys); i++ {
			if hi != nil && bytes.Compare(n.keys[i], hi) >= 0 {
				return false
			}
			if !fn(n.keys[i], n.vals[i]) {
				return false
			}
		}
		return true
	}
	start := 0
	if lo != nil {
		start = childIndex(n, lo)
	}
	for i := start; i < len(n.children); i++ {
		if hi != nil && i > 0 && bytes.Compare(n.keys[i-1], hi) >= 0 {
			return false
		}
		if !t.ascend(n.children[i], lo, hi, fn) {
			return false
		}
		lo = nil // every later child lies wholly above lo: no search in it
	}
	return true
}

// Descend visits entries with lo <= key < hi in reverse order.
func (t *Tree) Descend(lo, hi []byte, fn func(key []byte, val any) bool) {
	t.descend(t.root, lo, hi, fn)
}

func (t *Tree) descend(n *node, lo, hi []byte, fn func([]byte, any) bool) bool {
	if n.leaf {
		end := len(n.keys)
		if hi != nil {
			end, _ = leafIndex(n, hi)
		}
		for i := end - 1; i >= 0; i-- {
			if lo != nil && bytes.Compare(n.keys[i], lo) < 0 {
				return false
			}
			if !fn(n.keys[i], n.vals[i]) {
				return false
			}
		}
		return true
	}
	end := len(n.children) - 1
	if hi != nil {
		end = childIndex(n, hi)
	}
	for i := end; i >= 0; i-- {
		if !t.descend(n.children[i], lo, hi, fn) {
			return false
		}
		if lo != nil && i > 0 && bytes.Compare(n.keys[i-1], lo) <= 0 {
			return false // every earlier child lies wholly below lo
		}
		hi = nil // and wholly below hi: no search in it
	}
	return true
}

// ReduceRange aggregates entries with lo <= key < hi (nil = unbounded)
// in O(log n): whole subtrees inside the range contribute their stored
// annotation; only the range edges descend to leaves.
func (t *Tree) ReduceRange(lo, hi []byte) any {
	if t.reducer == nil {
		return nil
	}
	return t.reduceRange(t.root, lo, hi)
}

func (t *Tree) reduceRange(n *node, lo, hi []byte) any {
	if n.leaf {
		var parts []any
		for i := range n.keys {
			if lo != nil && bytes.Compare(n.keys[i], lo) < 0 {
				continue
			}
			if hi != nil && bytes.Compare(n.keys[i], hi) >= 0 {
				break
			}
			parts = append(parts, t.reducer.Map(n.keys[i], n.vals[i]))
		}
		return t.reducer.Merge(parts...)
	}
	var parts []any
	for i, c := range n.children {
		// The subtree at children[i] spans [sep(i-1), sep(i)) where
		// sep(-1) = -inf and sep(len) = +inf.
		var subLo, subHi []byte
		if i > 0 {
			subLo = n.keys[i-1]
		}
		if i < len(n.keys) {
			subHi = n.keys[i]
		}
		// Skip subtrees wholly outside [lo, hi).
		if hi != nil && subLo != nil && bytes.Compare(subLo, hi) >= 0 {
			break
		}
		if lo != nil && subHi != nil && bytes.Compare(subHi, lo) <= 0 {
			continue
		}
		// Whole subtree inside the range: use its annotation.
		loCovers := lo == nil || (subLo != nil && bytes.Compare(lo, subLo) <= 0)
		hiCovers := hi == nil || (subHi != nil && bytes.Compare(subHi, hi) <= 0)
		if loCovers && hiCovers {
			parts = append(parts, c.reduce)
			continue
		}
		parts = append(parts, t.reduceRange(c, lo, hi))
	}
	return t.reducer.Merge(parts...)
}
