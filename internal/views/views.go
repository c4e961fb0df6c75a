// Package views implements the view engine (paper §3.1.2, §4.3.3): a
// MapReduce-style local index. A view is defined by a map function that
// extracts (key, value) pairs from documents and an optional reduce
// that pre-aggregates them; the reduce results are stored inside the
// index B-tree's interior nodes, making aggregation queries O(log n).
//
// The paper defines map functions in JavaScript. The Go stdlib has no
// JS engine, so the map function is expressed declaratively with the
// N1QL expression language (see DESIGN.md, substitutions): a Filter
// predicate plays the role of the `if (...)` guard and Key/Value
// expressions play the role of `emit(key, value)`. The indexing
// pipeline — DCP-fed incremental maintenance, per-vBucket seqno
// tracking, stale=false/ok/update_after, scatter/gather, and vBucket
// filtering for rebalance — matches the paper.
package views

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"couchgo/internal/dcp"
	"couchgo/internal/feed"
	"couchgo/internal/gsi"
	"couchgo/internal/n1ql"
	"couchgo/internal/value"
)

// Staleness is the view query consistency knob (§3.1.2).
type Staleness int

const (
	// StaleOK: "Just return the current entries from the index file."
	StaleOK Staleness = iota
	// StaleFalse: "Wait for the view indexer to finish processing
	// changes ... and then return the latest entries."
	StaleFalse
	// StaleUpdateAfter: "Return the current entries from the index, but
	// then initiate a view index update. (This is the default.)"
	StaleUpdateAfter
)

// Errors returned by the view engine.
var (
	ErrNoSuchView = errors.New("views: no such view")
	ErrViewExists = errors.New("views: view already exists")
	ErrBadReduce  = errors.New("views: unknown reduce function")
	ErrBadMapSpec = errors.New("views: invalid map specification")
)

// MapSpec is the declarative map function. Expressions evaluate with
// the document bound to the alias "doc" (also the default alias, so
// bare field names work) and META().id giving the document ID.
type MapSpec struct {
	// Filter guards emission, like the `if` in a JS map function.
	// Empty = always emit.
	Filter string
	// Key is the emitted index key expression (required).
	Key string
	// Value is the emitted value expression. Empty = null.
	Value string
}

// Definition names a view and its map/reduce.
type Definition struct {
	Name   string
	Map    MapSpec
	Reduce string // "", "_count", "_sum", "_stats", "_min", "_max"
}

// Row is one view query result row.
type Row struct {
	Key   any
	Value any
	ID    string // empty for reduced rows
}

// QueryOptions mirror the view REST API's parameters.
type QueryOptions struct {
	Key          any   // exact-key lookup (set HasKey)
	HasKey       bool  // distinguishes Key=null from "no key"
	Keys         []any // multi-key lookup
	StartKey     any
	EndKey       any
	HasStart     bool
	HasEnd       bool
	InclusiveEnd bool
	Descending   bool
	Limit        int // 0 = unlimited
	Skip         int
	Reduce       bool
	Group        bool
	Stale        Staleness
	// WaitSeqnos, for Stale=StaleFalse: the per-vBucket seqnos the
	// view's feed must have applied before the scan runs (the data
	// service's current high seqnos at query submission).
	WaitSeqnos map[int]uint64
}

// compiled map spec: its expressions read a document's row of scope.
type compiledMap struct {
	scope  *n1ql.Scope
	filter n1ql.Expr // nil if none
	key    n1ql.Expr
	value  n1ql.Expr // nil if none
}

func compileMap(spec MapSpec) (*compiledMap, error) {
	if spec.Key == "" {
		return nil, fmt.Errorf("%w: empty key expression", ErrBadMapSpec)
	}
	cm := &compiledMap{scope: n1ql.NewScope("doc")}
	var err error
	if cm.key, err = n1ql.ParseExpr(spec.Key); err != nil {
		return nil, fmt.Errorf("%w: key: %v", ErrBadMapSpec, err)
	}
	if spec.Filter != "" {
		if cm.filter, err = n1ql.ParseExpr(spec.Filter); err != nil {
			return nil, fmt.Errorf("%w: filter: %v", ErrBadMapSpec, err)
		}
	}
	if spec.Value != "" {
		if cm.value, err = n1ql.ParseExpr(spec.Value); err != nil {
			return nil, fmt.Errorf("%w: value: %v", ErrBadMapSpec, err)
		}
	}
	cm.key, cm.filter, cm.value = cm.scope.Resolve(cm.key), cm.scope.Resolve(cm.filter), cm.scope.Resolve(cm.value)
	return cm, nil
}

// emit runs the map function over one document.
func (cm *compiledMap) emit(docID string, doc any) (key, val any, ok bool, err error) {
	ctx := cm.scope.NewContext(doc, n1ql.Meta{ID: docID})
	if cm.filter != nil {
		f, err := n1ql.Eval(cm.filter, ctx)
		if err != nil {
			return nil, nil, false, err
		}
		if f != true {
			return nil, nil, false, nil
		}
	}
	k, err := n1ql.Eval(cm.key, ctx)
	if err != nil {
		return nil, nil, false, err
	}
	if value.IsMissing(k) {
		return nil, nil, false, nil // emitting MISSING emits nothing
	}
	var v any
	if cm.value != nil {
		v, err = n1ql.Eval(cm.value, ctx)
		if err != nil {
			return nil, nil, false, err
		}
		if value.IsMissing(v) {
			v = nil
		}
	}
	return k, v, true, nil
}

// Engine is the per-node view engine: it consumes each local vBucket's
// DCP feed through the shared feed layer and maintains every defined
// view's B-tree. The feed hub owns all stream lifecycle; each view
// subscribes as one named consumer.
type Engine struct {
	hub *feed.Hub

	mu    sync.Mutex
	views map[string]*viewIndex
}

// NewEngine creates an empty view engine.
func NewEngine() *Engine {
	return &Engine{hub: feed.NewHub("views"), views: make(map[string]*viewIndex)}
}

// viewIndex is one view's local index: the index tree GSI partitions
// hold too, built with the view's reducer; an entry's key is the
// one-element composite [emitted key] and its value the emitted value.
type viewIndex struct {
	def  Definition
	cm   *compiledMap
	tree *gsi.Tree

	// feed is the view's subscription, set (under Engine.mu) once Define
	// has subscribed it; its applied-seqno vector is what stale=false
	// waits on.
	feed *feed.Feed
}

// Define creates a view and starts materializing it from every
// attached vBucket ("during initial view building ... Couchbase reads
// the partition's data files and applies the map function across every
// document" — here via a DCP backfill stream from seqno 0).
func (e *Engine) Define(def Definition) error {
	cm, err := compileMap(def.Map)
	if err != nil {
		return err
	}
	red, err := reducerFor(def.Reduce)
	if err != nil {
		return err
	}
	vi := &viewIndex{def: def, cm: cm, tree: gsi.NewTree(red)}
	e.mu.Lock()
	if _, ok := e.views[def.Name]; ok {
		e.mu.Unlock()
		return ErrViewExists
	}
	e.views[def.Name] = vi
	e.mu.Unlock()
	// Materialize from every attached vBucket: the hub opens a backfill
	// stream from seqno 0 per producer for the new subscription.
	f, err := e.hub.Subscribe("view:"+def.Name, vi)
	e.mu.Lock()
	defer e.mu.Unlock()
	if err != nil {
		delete(e.views, def.Name)
		return err
	}
	vi.feed = f
	return nil
}

// Drop removes a view.
func (e *Engine) Drop(name string) error {
	e.mu.Lock()
	_, ok := e.views[name]
	delete(e.views, name)
	e.mu.Unlock()
	if !ok {
		return ErrNoSuchView
	}
	e.hub.Unsubscribe("view:" + name)
	return nil
}

// Names lists defined views.
func (e *Engine) Names() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.views))
	for n := range e.views {
		out = append(out, n)
	}
	return out
}

// AttachVB begins indexing a vBucket that became active on this node.
// Attaching an already-attached vBucket is a no-op, so cluster state
// reconciliation can call it idempotently.
func (e *Engine) AttachVB(vb int, p dcp.StreamSource) error {
	return e.hub.AttachVB(vb, p)
}

// DetachVB stops indexing a vBucket and removes its entries. This is
// the rebalance/failover consistency mechanism of §4.3.3: "when a
// partition has migrated to a different server, the documents that
// belong to the migrated partition should not be used in the view
// result anymore."
func (e *Engine) DetachVB(vb int) {
	e.hub.DetachVB(vb)
	e.mu.Lock()
	views := make([]*viewIndex, 0, len(e.views))
	for _, vi := range e.views {
		views = append(views, vi)
	}
	e.mu.Unlock()
	for _, vi := range views {
		vi.Rollback(vb, 0)
	}
}

// FeedStats describes the engine's feeds (one per view).
func (e *Engine) FeedStats() []feed.Stat {
	return e.hub.Stats()
}

// Close stops all views.
func (e *Engine) Close() {
	e.hub.Close()
	e.mu.Lock()
	e.views = make(map[string]*viewIndex)
	e.mu.Unlock()
}

// Rollback implements feed.Rollbacker: discard the partition's entries
// entirely and let the feed re-stream it. A promoted copy's history is
// shorter than what this view applied, and emitted rows from the lost
// branch must not survive.
func (vi *viewIndex) Rollback(vb int, _ uint64) uint64 {
	vi.tree.PurgeVB(vb)
	return 0
}

// Apply implements feed.Consumer: the document's emission replaces its
// previous one. A deleted, unparsable or non-emitting document (a
// failing map function emits nothing) contributes no entry.
func (vi *viewIndex) Apply(vb int, m dcp.Mutation) {
	var secs [][]any
	var val any
	if !m.Deleted {
		if doc, ok := value.Parse(m.Value); ok {
			if k, v, emitted, err := vi.cm.emit(m.Key, doc); err == nil && emitted {
				secs, val = [][]any{{k}}, v
			}
		}
	}
	vi.tree.Replace(vb, m.Key, secs, val)
}

// lookup returns a view that Define has subscribed.
func (e *Engine) lookup(name string) (*viewIndex, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	vi, ok := e.views[name]
	if !ok || vi.feed == nil {
		return nil, ErrNoSuchView
	}
	return vi, nil
}

// Scan serves one page of this node's part of a view-backed index
// (CREATE INDEX ... USING VIEW, §3.3.1), as a GSI partition serves its
// part of a partitioned index; the cluster layer merges the nodes'
// pages. A non-nil opts.WaitSeqnos (request_plus) is first waited for
// on the view's feed, bounded by ctx.
func (e *Engine) Scan(ctx context.Context, name string, opts gsi.ScanOptions) ([]gsi.ScanItem, error) {
	vi, err := e.lookup(name)
	if err != nil {
		return nil, err
	}
	if opts.WaitSeqnos != nil {
		if err := vi.feed.Wait(ctx, opts.WaitSeqnos); err != nil {
			return nil, err
		}
	}
	return vi.tree.Scan(opts), nil
}

// Query runs a view query against this node's local index. Cluster
// scatter/gather (Figure 8) merges Query results from every node. The
// ctx bounds the stale=false consistency wait on the view's feed. A
// view is queryable once Define has subscribed it.
func (e *Engine) Query(ctx context.Context, name string, opts QueryOptions) ([]Row, error) {
	vi, err := e.lookup(name)
	if err != nil {
		return nil, err
	}
	if opts.Stale == StaleFalse {
		if err := vi.feed.Wait(ctx, opts.WaitSeqnos); err != nil {
			return nil, err
		}
	}
	if opts.Reduce && vi.def.Reduce == "" {
		return nil, fmt.Errorf("%w: view %s has no reduce", ErrBadReduce, name)
	}
	// The tree walk stops at skip+limit rows; skip is cut afterwards.
	want := 0
	if opts.Limit > 0 {
		want = opts.Skip + opts.Limit
	}
	var rows []Row
	for _, span := range opts.spans() {
		switch {
		case opts.Reduce && !opts.Group:
			// The fast path the paper highlights: aggregate straight from
			// the pre-computed reduce annotations in the tree.
			rows = append(rows, Row{Value: finishReduce(vi.def.Reduce, vi.tree.Reduce(span))})
		case opts.Reduce:
			rows = append(rows, reduceGrouped(vi, span)...)
		case want == 0 || len(rows) < want:
			if want > 0 {
				span.Limit = want - len(rows)
			}
			for _, it := range vi.tree.Scan(span) {
				rows = append(rows, Row{Key: it.SecKey[0], Value: it.Value, ID: it.DocID})
			}
		}
	}
	return trimRows(rows, opts), nil
}

// spans translates the REST parameters into index scans: one per key of
// a multi-key lookup (their union, in the order given), else one.
func (o QueryOptions) spans() []gsi.ScanOptions {
	keys := o.Keys
	if len(keys) == 0 && o.HasKey {
		keys = []any{o.Key}
	}
	if len(keys) > 0 {
		spans := make([]gsi.ScanOptions, len(keys))
		for i, k := range keys {
			spans[i] = gsi.ScanOptions{EqualKey: []any{k}, HasEqual: true, Reverse: o.Descending}
		}
		return spans
	}
	span := gsi.ScanOptions{LowIncl: true, HighIncl: o.InclusiveEnd, Reverse: o.Descending}
	if o.HasStart {
		span.Low = []any{o.StartKey}
	}
	if o.HasEnd {
		span.High = []any{o.EndKey}
	}
	return []gsi.ScanOptions{span}
}

func trimRows(rows []Row, opts QueryOptions) []Row {
	if opts.Skip > 0 {
		if opts.Skip >= len(rows) {
			return nil
		}
		rows = rows[opts.Skip:]
	}
	if opts.Limit > 0 && len(rows) > opts.Limit {
		rows = rows[:opts.Limit]
	}
	return rows
}

// reduceGrouped reduces the span's entries per distinct key
// (group=true), reading the span a page at a time.
func reduceGrouped(vi *viewIndex, span gsi.ScanOptions) []Row {
	var rows []Row
	var acc any
	r, _ := reducerFor(vi.def.Reduce)
	flush := func() {
		if len(rows) > 0 {
			rows[len(rows)-1].Value = finishReduce(vi.def.Reduce, acc)
		}
	}
	span.Reverse, span.Limit = false, 1024
	for more := true; more; {
		page := vi.tree.Scan(span)
		for _, it := range page {
			if n := len(rows); n == 0 || value.Compare(it.SecKey[0], rows[n-1].Key) != 0 {
				flush()
				rows = append(rows, Row{Key: it.SecKey[0]})
				acc = r.Zero()
			}
			acc = r.Merge(acc, r.Map(nil, it))
		}
		if more = span.More(len(page)); more {
			span.After = &page[len(page)-1]
		}
	}
	flush()
	return rows
}
