// Package analytics implements the operational-analytics service from
// the paper's medium-term plans (§6.2): "the planned analytical service
// will be another new service that is fed via in-memory DCP and that
// can be scaled either out or up independently with respect to other
// services, especially the data service (to provide performance
// isolation for the all-important front-end OLTP workloads). The new
// analytics service will support a much wider range of queries ...
// such as large joins, aggregations, grouping."
//
// The engine maintains a DCP-fed shadow dataset per bucket — queries
// never touch the data service's cache or storage, giving the
// workload isolation the paper demands — and executes the full N1QL
// surface plus general (non-key) joins via the executor's
// KeyspaceScanner extension (hash join / nested loop).
//
// The paper planned to build this on Apache AsterixDB; per the
// reproduction rules the substitution here is a native shadow-dataset
// engine with the same architectural properties (DCP feed, isolation,
// richer joins). See DESIGN.md.
package analytics

import (
	"context"
	"errors"
	"sync"

	"couchgo/internal/dcp"
	"couchgo/internal/executor"
	"couchgo/internal/feed"
	"couchgo/internal/gsi"
	"couchgo/internal/n1ql"
	"couchgo/internal/planner"
	"couchgo/internal/value"
)

// Errors returned by the analytics service.
var (
	ErrNotEnabled = errors.New("analytics: dataset not enabled (call Enable first)")
	ErrDML        = errors.New("analytics: the analytics service is read-only; run DML on the data service")
)

// entry is one shadowed document: the value of its entry in the
// dataset's tree.
type entry struct {
	doc  any
	meta n1ql.Meta
}

// Engine shadows one bucket for analytical querying. DCP consumption
// goes through the shared feed layer: vBucket producers register with
// the engine's hub, and Enable subscribes the engine itself as the
// single "analytics" consumer.
type Engine struct {
	keyspace string
	hub      *feed.Hub
	// tree is the shadow dataset and its primary index in one: the index
	// tree GSI partitions and views hold, with one entry per document
	// keyed [docID] whose value is the document (an entry).
	tree *gsi.Tree

	mu sync.Mutex
	// feed is the "analytics" subscription once Enable has made it;
	// consistent queries wait on its applied-seqno vector.
	feed *feed.Feed
}

// NewEngine creates a disabled engine for one bucket (keyspace).
func NewEngine(keyspace string) *Engine {
	return &Engine{
		keyspace: keyspace,
		hub:      feed.NewHub("analytics"),
		tree:     gsi.NewTree(nil),
	}
}

// AttachVB registers a vBucket's producer. If the dataset is enabled,
// shadowing starts immediately; otherwise Enable starts it later.
func (e *Engine) AttachVB(vb int, p dcp.StreamSource) error {
	return e.hub.AttachVB(vb, p)
}

// DetachVB stops shadowing a vBucket and removes its documents.
func (e *Engine) DetachVB(vb int) {
	e.hub.DetachVB(vb)
	e.Rollback(vb, 0)
}

// Enable starts shadowing: a DCP feed per attached vBucket backfills
// the dataset from seqno 0, then follows live mutations. Enabling a live
// dataset is a no-op; the hub refuses a second subscription racing the
// first.
func (e *Engine) Enable() error {
	if e.liveFeed() != nil {
		return nil
	}
	f, err := e.hub.Subscribe("analytics", e)
	if err != nil {
		return err
	}
	e.mu.Lock()
	e.feed = f
	e.mu.Unlock()
	return nil
}

// Enabled reports whether the dataset is live (Enable has subscribed
// its feed).
func (e *Engine) Enabled() bool {
	return e.liveFeed() != nil
}

func (e *Engine) liveFeed() *feed.Feed {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.feed
}

// FeedStats describes the engine's feed (empty until enabled).
func (e *Engine) FeedStats() []feed.Stat {
	return e.hub.Stats()
}

// Rollback implements feed.Rollbacker: drop the vBucket's shadow
// documents; the feed re-streams the partition from the promoted
// copy's history.
func (e *Engine) Rollback(vb int, _ uint64) uint64 {
	e.tree.PurgeVB(vb)
	return 0
}

// Apply implements feed.Consumer: shadow one mutation.
func (e *Engine) Apply(vb int, m dcp.Mutation) {
	if m.Deleted {
		e.tree.Replace(vb, m.Key, nil, nil)
	} else if doc, ok := value.Parse(m.Value); ok {
		e.tree.Replace(vb, m.Key, [][]any{{m.Key}}, entry{doc: doc, meta: n1ql.Meta{ID: m.Key, CAS: m.CAS, Seqno: m.Seqno}})
	}
}

// DatasetSize reports the shadowed document count.
func (e *Engine) DatasetSize() int {
	return e.tree.Stats().Docs
}

// Close stops all streams.
func (e *Engine) Close() {
	e.hub.Close()
}

// QueryOptions parameterize an analytics query.
type QueryOptions struct {
	Params map[string]any
	// WaitSeqnos, when set, makes the query wait (bounded by its ctx)
	// until the shadow's feed has applied the given data-service seqno
	// vector (read-your-writes into analytics).
	WaitSeqnos map[int]uint64
}

// Query parses, plans, and executes a SELECT against the shadow
// dataset. The full N1QL grammar is accepted, including the general
// joins the operational query service rejects. DML is refused: the
// analytics copy is read-only.
func (e *Engine) Query(ctx context.Context, statement string, opts QueryOptions) ([]any, error) {
	f := e.liveFeed()
	if f == nil {
		return nil, ErrNotEnabled
	}
	stmt, err := n1ql.Parse(statement)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*n1ql.Select)
	if !ok {
		if _, isExplain := stmt.(*n1ql.Explain); isExplain {
			return e.explain(stmt.(*n1ql.Explain), opts)
		}
		return nil, ErrDML
	}
	if err := f.Wait(ctx, opts.WaitSeqnos); err != nil {
		return nil, err
	}
	p, err := planner.PlanSelect(sel, shadowCatalog{e})
	if err != nil {
		return nil, err
	}
	return executor.ExecuteSelect(p, &shadowStore{e}, executor.Options{Params: opts.Params, Ctx: ctx})
}

func (e *Engine) explain(ex *n1ql.Explain, opts QueryOptions) ([]any, error) {
	sel, ok := ex.Target.(*n1ql.Select)
	if !ok {
		return nil, ErrDML
	}
	p, err := planner.PlanSelect(sel, shadowCatalog{e})
	if err != nil {
		return nil, err
	}
	return []any{p.Describe()}, nil
}

// shadowCatalog: the shadow dataset exposes a single synthetic primary
// index per keyspace — every scan is a dataset scan, the analytics
// profile ("a typical workload ... will include richer (and more
// expensive) queries").
type shadowCatalog struct{ e *Engine }

func (c shadowCatalog) KeyspaceExists(name string) bool { return name == c.e.keyspace }

func (c shadowCatalog) Indexes(string) []planner.IndexInfo {
	return []planner.IndexInfo{{
		Name: "#shadow-primary", IsPrimary: true,
		SecCanonical: []string{"meta().id"}, Built: true,
	}}
}

// shadowStore implements executor.Datastore + KeyspaceScanner over the
// shadow dataset. It never touches the data service.
type shadowStore struct{ e *Engine }

func (s *shadowStore) Fetch(_ context.Context, _ string, id string) (any, n1ql.Meta, error) {
	it, ok := s.e.tree.Get([]any{id}, id)
	if !ok {
		return nil, n1ql.Meta{}, executor.ErrNotFound
	}
	en := it.Value.(entry)
	return en.doc, en.meta, nil
}

// ScanIndex serves one page of the dataset's primary index.
func (s *shadowStore) ScanIndex(_ context.Context, _, _ string, _ n1ql.IndexUsing, opts gsi.ScanOptions) ([]gsi.ScanItem, bool, error) {
	page := s.e.tree.Scan(opts)
	return page, opts.More(len(page)), nil
}

// ScanKeyspace implements executor.KeyspaceScanner: the hook that
// unlocks general joins.
func (s *shadowStore) ScanKeyspace(keyspace string) ([]executor.ScannedDoc, error) {
	if keyspace != s.e.keyspace {
		return nil, errors.New("analytics: unknown keyspace " + keyspace)
	}
	items := s.e.tree.Scan(gsi.ScanOptions{})
	out := make([]executor.ScannedDoc, len(items))
	for i, it := range items {
		en := it.Value.(entry)
		out[i] = executor.ScannedDoc{ID: it.DocID, Doc: en.doc, Meta: en.meta}
	}
	return out, nil
}

func (s *shadowStore) ConsistencyVector(string) map[int]uint64 { return nil }

// The analytics copy is read-only.
func (s *shadowStore) InsertDoc(context.Context, string, string, any, bool) error {
	return ErrDML
}
func (s *shadowStore) UpdateDoc(context.Context, string, string, any) error { return ErrDML }
func (s *shadowStore) DeleteDoc(context.Context, string, string) error      { return ErrDML }
