// Package btree implements the ordered index structure shared by the
// view engine and the GSI indexer: an in-memory B+tree over
// collation-encoded byte keys, generic over its value. A leaf holds its
// values inline, so a tree of structs (gsi.Tree's ScanItem) keeps no
// object per entry but its key, and a reader takes a value without a
// type assertion.
//
// Its distinguishing feature reproduces the paper's view-index design
// (§4.3.3): "A key characteristic of a view index is that it stores the
// pre-computed aggregates defined in the Reduce function as a part of
// the index tree. This allows for very fast aggregation at query time."
// Every interior node carries a reduce annotation maintained on each
// mutation; ReduceRange answers aggregate queries over a key range in
// O(log n) by combining whole-subtree annotations.
package btree

import (
	"bytes"
	"slices"
)

const (
	maxItems = 32 // max entries per leaf / children per interior node
)

// Reducer computes the pre-aggregated annotations. Map converts one
// leaf entry to a partial aggregate; Merge combines partials. Merge
// must be associative; Zero is the identity (empty range result). A
// Reducer holds no state: gsi.Tree calls ReduceRange under a read lock
// it shares, so Map and Merge run on several goroutines at once (every
// reducer in internal/views is an empty struct).
type Reducer[V any] interface {
	Map(key []byte, val V) any
	Merge(parts ...any) any
	Zero() any
}

// Tree is a B+tree mapping unique byte keys to values of type V. The
// zero-value Tree is not usable; call New. It has no lock of its own:
// reads change nothing and may share the caller's lock, Set and Delete
// need it exclusively.
type Tree[V any] struct {
	root    *node[V]
	reducer Reducer[V] // nil = no annotations maintained
}

type node[V any] struct {
	leaf     bool
	keys     [][]byte
	vals     []V        // leaf entries, inline
	children []*node[V] // interior children
	reduce   any        // annotation over the whole subtree
}

// New creates an empty tree. reducer may be nil when range-reduce
// queries are not needed (plain GSI indexes).
func New[V any](reducer Reducer[V]) *Tree[V] {
	return &Tree[V]{root: &node[V]{leaf: true}, reducer: reducer}
}

// Get returns the value for key.
func (t *Tree[V]) Get(key []byte) (V, bool) {
	n := t.root
	for !n.leaf {
		n = n.children[childIndex(n.keys, key)]
	}
	i, ok := leafIndex(n.keys, key)
	if !ok {
		var zero V
		return zero, false
	}
	return n.vals[i], true
}

// childIndex picks the child of an interior node with separators keys
// to descend into: the last child whose separator key is <= key.
// Interior layout: children[0], keys[0], children[1], keys[1], ...
// keys[i] is the smallest key in children[i+1]'s subtree.
func childIndex(keys [][]byte, key []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// leafIndex finds key's position among a leaf's keys (exact or
// insertion point).
func leafIndex(keys [][]byte, key []byte) (int, bool) {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if bytes.Compare(keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(keys) && bytes.Equal(keys[lo], key)
}

// Set inserts or replaces key's value. It returns the tree's own copy of
// key, which a caller may keep (read-only) instead of a copy of its own,
// and reports whether the key was newly inserted.
func (t *Tree[V]) Set(key []byte, val V) (stored []byte, inserted bool) {
	stored, inserted, split := t.insert(t.root, key, val)
	if split != nil {
		old := t.root
		t.root = &node[V]{
			keys:     [][]byte{split.key},
			children: []*node[V]{old, split.right},
		}
		t.annotate(t.root)
	}
	return stored, inserted
}

type splitResult[V any] struct {
	key   []byte
	right *node[V]
}

func (t *Tree[V]) insert(n *node[V], key []byte, val V) ([]byte, bool, *splitResult[V]) {
	if n.leaf {
		i, found := leafIndex(n.keys, key)
		if found {
			n.vals[i] = val
			t.annotate(n)
			return n.keys[i], false, t.maybeSplit(n)
		}
		key = append([]byte(nil), key...)
		n.keys = slices.Insert(n.keys, i, key)
		n.vals = slices.Insert(n.vals, i, val)
		t.annotate(n)
		return key, true, t.maybeSplit(n)
	}
	ci := childIndex(n.keys, key)
	stored, inserted, split := t.insert(n.children[ci], key, val)
	if split != nil {
		n.keys = append(n.keys, nil)
		copy(n.keys[ci+1:], n.keys[ci:])
		n.keys[ci] = split.key
		n.children = append(n.children, nil)
		copy(n.children[ci+2:], n.children[ci+1:])
		n.children[ci+1] = split.right
	}
	t.annotate(n)
	return stored, inserted, t.maybeSplit(n)
}

func (t *Tree[V]) maybeSplit(n *node[V]) *splitResult[V] {
	if n.leaf {
		if len(n.keys) <= maxItems {
			return nil
		}
		mid := len(n.keys) / 2
		right := &node[V]{
			leaf: true,
			keys: append([][]byte(nil), n.keys[mid:]...),
			vals: append([]V(nil), n.vals[mid:]...),
		}
		clear(n.vals[mid:]) // the moved values' references live on in right alone
		n.keys = n.keys[:mid]
		n.vals = n.vals[:mid]
		t.annotate(n)
		t.annotate(right)
		return &splitResult[V]{key: right.keys[0], right: right}
	}
	if len(n.children) <= maxItems {
		return nil
	}
	mid := len(n.children) / 2
	sepKey := n.keys[mid-1]
	right := &node[V]{
		keys:     append([][]byte(nil), n.keys[mid:]...),
		children: append([]*node[V](nil), n.children[mid:]...),
	}
	n.keys = n.keys[:mid-1]
	n.children = n.children[:mid]
	t.annotate(n)
	t.annotate(right)
	return &splitResult[V]{key: sepKey, right: right}
}

// Delete removes key, reporting whether it existed. Underflowed nodes
// are not rebalanced (empty ones are removed); the tree stays correct
// and, under the steady churn of index maintenance, acceptably shallow.
func (t *Tree[V]) Delete(key []byte) bool {
	deleted := t.del(t.root, key)
	// Collapse a root with a single child.
	for !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
	}
	return deleted
}

func (t *Tree[V]) del(n *node[V], key []byte) bool {
	if n.leaf {
		i, found := leafIndex(n.keys, key)
		if !found {
			return false
		}
		n.keys = slices.Delete(n.keys, i, i+1)
		n.vals = slices.Delete(n.vals, i, i+1)
		t.annotate(n)
		return true
	}
	ci := childIndex(n.keys, key)
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

func (t *Tree[V]) annotate(n *node[V]) {
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
func (t *Tree[V]) Ascend(lo, hi []byte, fn func(key []byte, val V) bool) {
	t.ascend(t.root, lo, hi, fn)
}

func (t *Tree[V]) ascend(n *node[V], lo, hi []byte, fn func([]byte, V) bool) bool {
	if n.leaf {
		start := 0
		if lo != nil {
			start, _ = leafIndex(n.keys, lo)
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
		start = childIndex(n.keys, lo)
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
func (t *Tree[V]) Descend(lo, hi []byte, fn func(key []byte, val V) bool) {
	t.descend(t.root, lo, hi, fn)
}

func (t *Tree[V]) descend(n *node[V], lo, hi []byte, fn func([]byte, V) bool) bool {
	if n.leaf {
		end := len(n.keys)
		if hi != nil {
			end, _ = leafIndex(n.keys, hi)
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
		end = childIndex(n.keys, hi)
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
func (t *Tree[V]) ReduceRange(lo, hi []byte) any {
	if t.reducer == nil {
		return nil
	}
	return t.reduceRange(t.root, lo, hi)
}

func (t *Tree[V]) reduceRange(n *node[V], lo, hi []byte) any {
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
