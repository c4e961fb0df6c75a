package core

import (
	"maps"
	"sync/atomic"
)

// published is a copy-on-write table for state that changes rarely and
// is read on every op: the routing tables of the KV path (a bucket's
// topology, the cluster's nodes, a node's buckets and conns, a
// footprint's vBuckets). A reader loads the current copy and indexes
// it, taking no lock and writing no shared word; the copy it loaded is
// never edited, so it may also range over it. A writer publishes an
// edited copy and must hold its owner's mutex, which is what
// serializes writers. A change is visible to readers no later than the
// writer's return.
type published[K comparable, V any] struct {
	p atomic.Pointer[map[K]V]
}

// all returns the current copy (nil while empty): read-only.
func (t *published[K, V]) all() map[K]V {
	if m := t.p.Load(); m != nil {
		return *m
	}
	return nil
}

func (t *published[K, V]) get(k K) (V, bool) {
	v, ok := t.all()[k]
	return v, ok
}

// put publishes a copy with k set to v.
func (t *published[K, V]) put(k K, v V) {
	next := maps.Clone(t.all())
	if next == nil {
		next = make(map[K]V, 1)
	}
	next[k] = v
	t.p.Store(&next)
}

// drop publishes a copy without k.
func (t *published[K, V]) drop(k K) {
	next := maps.Clone(t.all())
	delete(next, k)
	t.p.Store(&next)
}

// reset publishes the empty table.
func (t *published[K, V]) reset() { t.p.Store(nil) }
