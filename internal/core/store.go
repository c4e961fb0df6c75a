package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"couchgo/internal/analytics"
	"couchgo/internal/cache"
	"couchgo/internal/cmap"
	"couchgo/internal/events"
	"couchgo/internal/executor"
	"couchgo/internal/fts"
	"couchgo/internal/gsi"
	"couchgo/internal/metrics"
	"couchgo/internal/n1ql"
	"couchgo/internal/planner"
	"couchgo/internal/query"
	"couchgo/internal/trace"
	"couchgo/internal/value"
	"couchgo/internal/views"
)

// ErrNoQueryNode is returned when no node runs the query service.
var ErrNoQueryNode = errors.New("core: no node runs the query service")

// ErrNoIndexNode is returned when index DDL arrives with no index node.
var ErrNoIndexNode = errors.New("core: no node runs the index service")

// clusterStore implements query.Store over the whole cluster: document
// fetches route through the data service, index scans hit the GSI
// service or scatter/gather over per-node view engines, DML routes by
// key. It is the bridge between the query service and everything else
// (§4.5.1).
type clusterStore struct {
	c *Cluster
}

// Query-service metrics: end-to-end statement latency plus how many
// statements ever crossed the slow threshold.
var (
	mQueryDuration = metrics.Default.Histogram("couchgo_query_duration_seconds")
	mSlowQueries   = metrics.Default.Counter("couchgo_query_slow_total")
)

// Query executes a N1QL statement on the cluster. The statement is
// served by the query service; ErrNoQueryNode enforces the MDS
// topology (a cluster without query nodes cannot run N1QL).
func (c *Cluster) Query(statement string, opts executor.Options) (*query.Result, error) {
	if !c.hasService(cmap.ServiceQuery) {
		return nil, ErrNoQueryNode
	}
	ctx, sp := trace.Default.Start(opts.Context(), "query")
	if sp != nil {
		sp.Annotate("statement", statement)
	}
	opts.Ctx = ctx
	t0 := time.Now()
	res, err := c.queryEng.Execute(statement, opts)
	elapsed := time.Since(t0)
	mQueryDuration.Observe(elapsed)
	if c.slowLog.Observe(statement, elapsed) {
		mSlowQueries.Inc()
		e := events.New(events.SlowOp, events.SevWarn, "slow query")
		e.Service = "query"
		e.Fields = map[string]string{
			"statement":  truncateStatement(statement),
			"elapsed_ms": fmt.Sprintf("%d", elapsed.Milliseconds()),
		}
		if t := trace.TraceFromContext(ctx); t != nil {
			e.TraceID = t.ID
		}
		events.Default.Publish(e)
	}
	if sp != nil {
		if res != nil {
			sp.Annotate("rows", fmt.Sprint(len(res.Rows)))
		}
		sp.Error(err)
		sp.End()
	}
	return res, err
}

// truncateStatement bounds a statement for embedding in an event.
func truncateStatement(s string) string {
	const max = 200
	if len(s) > max {
		return s[:max] + "..."
	}
	return s
}

func (c *Cluster) hasService(s cmap.Service) bool {
	for _, n := range c.nodes.all() {
		if n.services.Has(s) && n.Alive() {
			return true
		}
	}
	return false
}

// --- planner.Catalog ---

func (s *clusterStore) CatalogEpoch() uint64 { return s.c.catalogEpoch.Load() }

func (s *clusterStore) KeyspaceExists(name string) bool {
	_, err := s.c.bucket(name)
	return err == nil
}

func (s *clusterStore) Indexes(keyspace string) []planner.IndexInfo {
	b, err := s.c.bucket(keyspace)
	if err != nil {
		return nil
	}
	var out []planner.IndexInfo
	for _, m := range b.gsiSvc.ListIndexes(keyspace) {
		out = append(out, planner.IndexInfo{
			Name:           m.Name,
			Using:          n1ql.UsingGSI,
			IsPrimary:      m.IsPrimary,
			SecCanonical:   m.SecCanonical,
			WhereCanonical: m.WhereCanonical,
			IsArray:        m.IsArrayIndex,
			Built:          m.Built,
		})
	}
	b.mu.Lock()
	for _, vi := range b.viewIndexes {
		out = append(out, vi)
	}
	b.mu.Unlock()
	return out
}

// --- index DDL routing (§3.3: USING GSI vs USING VIEW) ---

func (s *clusterStore) CreateIndex(ci *n1ql.CreateIndex) error {
	return s.c.CreateIndexStmt(ci)
}

func (s *clusterStore) DropIndex(keyspace, name string) error {
	return s.c.DropIndexByName(keyspace, name)
}

func (s *clusterStore) BuildIndex(keyspace, name string) error {
	b, err := s.c.bucket(keyspace)
	if err != nil {
		return err
	}
	return b.gsiSvc.BuildIndex(keyspace, name)
}

// CreateIndexStmt routes CREATE INDEX to the right service.
func (c *Cluster) CreateIndexStmt(ci *n1ql.CreateIndex) error {
	b, err := c.bucket(ci.Keyspace)
	if err != nil {
		return err
	}
	if ci.Using == n1ql.UsingView {
		return c.createViewIndex(b, ci)
	}
	if !c.hasService(cmap.ServiceIndex) {
		return ErrNoIndexNode
	}
	def := gsi.Def{
		Name:      ci.Name,
		Keyspace:  ci.Keyspace,
		IsPrimary: ci.Primary,
	}
	for _, k := range ci.Keys {
		def.SecExprs = append(def.SecExprs, k.String())
	}
	if ci.Where != nil {
		def.WhereExpr = ci.Where.String()
	}
	if ci.With != nil {
		if d, ok := ci.With["defer_build"].(bool); ok {
			def.Deferred = d
		}
		if p, ok := value.AsNumber(ci.With["num_partitions"]); ok {
			def.NumPartitions = int(p)
		}
		if m, ok := ci.With["memory_optimized"].(bool); ok && m {
			def.Mode = gsi.MemoryOptimized
		}
	}
	return b.gsiSvc.CreateIndex(def)
}

// createViewIndex implements CREATE INDEX ... USING VIEW (§3.3.1): a
// local view per data node whose map emits the index key.
func (c *Cluster) createViewIndex(b *bucketState, ci *n1ql.CreateIndex) error {
	if len(ci.Keys) != 1 && !ci.Primary {
		return fmt.Errorf("core: USING VIEW indexes support exactly one key expression")
	}
	info := planner.IndexInfo{
		Name:      ci.Name,
		Using:     n1ql.UsingView,
		IsPrimary: ci.Primary,
		Built:     true,
	}
	def := views.Definition{Name: viewIndexName(ci.Name)}
	if ci.Primary {
		info.SecCanonical = []string{"meta().id"}
		def.Map = views.MapSpec{Key: "meta().id"}
	} else {
		key := n1ql.Formalize(ci.Keys[0], ci.Keyspace)
		if _, isArr := key.(*n1ql.ArrayComprehension); isArr {
			return fmt.Errorf("core: USING VIEW does not support array indexes; use GSI")
		}
		info.SecCanonical = []string{key.String()}
		def.Map = views.MapSpec{Key: key.String()}
		// The leading key must exist for the entry to exist, matching
		// GSI behaviour.
		def.Map.Filter = "(" + key.String() + ") IS NOT MISSING"
	}
	if ci.Where != nil {
		w := n1ql.Formalize(ci.Where, ci.Keyspace)
		info.WhereCanonical = w.String()
		if def.Map.Filter != "" {
			def.Map.Filter = def.Map.Filter + " AND (" + w.String() + ")"
		} else {
			def.Map.Filter = w.String()
		}
	}
	b.mu.Lock()
	if b.viewIndexes == nil {
		b.viewIndexes = map[string]planner.IndexInfo{}
	}
	if _, dup := b.viewIndexes[ci.Name]; dup {
		b.mu.Unlock()
		return gsi.ErrIndexExists
	}
	b.viewIndexes[ci.Name] = info
	c.catalogEpoch.Add(1)
	b.mu.Unlock()
	return c.DefineView(b.name, def)
}

func viewIndexName(index string) string { return "$idx:" + index }

// DropIndexByName removes a GSI or view-backed index.
func (c *Cluster) DropIndexByName(keyspace, name string) error {
	b, err := c.bucket(keyspace)
	if err != nil {
		return err
	}
	b.mu.Lock()
	_, isView := b.viewIndexes[name]
	if isView {
		delete(b.viewIndexes, name)
		c.catalogEpoch.Add(1)
	}
	b.mu.Unlock()
	if isView {
		return c.DropView(keyspace, viewIndexName(name))
	}
	return b.gsiSvc.DropIndex(keyspace, name)
}

// --- executor.Datastore ---

func (s *clusterStore) Fetch(ctx context.Context, keyspace, id string) (any, n1ql.Meta, error) {
	cl, err := s.c.OpenBucket(keyspace)
	if err != nil {
		return nil, n1ql.Meta{}, err
	}
	it, err := cl.Get(ctx, id)
	if err != nil {
		if errors.Is(err, cache.ErrKeyNotFound) {
			return nil, n1ql.Meta{}, executor.ErrNotFound
		}
		return nil, n1ql.Meta{}, err
	}
	doc, _ := value.Parse(it.Value)
	return doc, n1ql.Meta{ID: id, CAS: it.CAS, Seqno: it.Seqno}, nil
}

func (s *clusterStore) ConsistencyVector(keyspace string) map[int]uint64 {
	return s.c.ConsistencyVector(keyspace)
}

// ConsistencyVector captures the data service's per-vBucket high
// seqnos — the request_plus barrier of §4.2: "the query engine will
// wait until the index is updated up to the maximum sequence number
// for each vBucket". Every consistent read (N1QL request_plus, view
// stale=false, FTS and analytics read-your-writes) captures it here and
// hands it to its service's feed.Feed.Wait.
func (c *Cluster) ConsistencyVector(keyspace string) map[int]uint64 {
	b, err := c.bucket(keyspace)
	if err != nil {
		return nil
	}
	m := b.Map()
	out := make(map[int]uint64, m.NumVBuckets)
	for vb := 0; vb < m.NumVBuckets; vb++ {
		if v, err := c.active(keyspace, vb); err == nil {
			out[vb] = v.HighSeqno()
		}
	}
	return out
}

// ScanIndex forwards one page of a scan to the index's holders: the GSI
// service's partitions, or every data node's view engine. Both merge
// their holders' pages by tree key, and a page shorter than asked for
// ends the span.
func (s *clusterStore) ScanIndex(ctx context.Context, keyspace, index string, using n1ql.IndexUsing, opts gsi.ScanOptions) ([]gsi.ScanItem, bool, error) {
	b, err := s.c.bucket(keyspace)
	if err != nil {
		return nil, false, err
	}
	var page []gsi.ScanItem
	if using == n1ql.UsingView {
		page, err = s.c.scanViewIndex(ctx, b, index, opts)
	} else {
		page, err = b.gsiSvc.Scan(ctx, keyspace, index, opts)
	}
	return page, opts.More(len(page)), err
}

// scanViewIndex serves one page of a view-backed index (Figure 8): the
// data nodes are its partitions, each serving its own page from the
// same continuation after waiting for its slice of the request_plus
// vector.
func (c *Cluster) scanViewIndex(ctx context.Context, b *bucketState, index string, opts gsi.ScanOptions) ([]gsi.ScanItem, error) {
	var pages [][]gsi.ScanItem
	err := c.eachViewNode(b, opts.WaitSeqnos, func(e *views.Engine, wait map[int]uint64) error {
		nodeOpts := opts
		nodeOpts.WaitSeqnos = wait
		nodeOpts.Page = nil // one buffer cannot take every node's page
		page, err := e.Scan(ctx, viewIndexName(index), nodeOpts)
		pages = append(pages, page)
		return err
	})
	if err != nil {
		return nil, err
	}
	return gsi.MergePages(pages, opts.Reverse, opts.Limit), nil
}

// eachViewNode calls fn with every live data node's view engine and
// that node's slice of wait: the vBuckets active on it (nil when wait
// is nil).
func (c *Cluster) eachViewNode(b *bucketState, wait map[int]uint64, fn func(e *views.Engine, wait map[int]uint64) error) error {
	m := b.Map()
	for _, n := range c.Nodes() {
		nb, err := n.bucket(b.name)
		if err != nil {
			continue
		}
		var slice map[int]uint64
		if wait != nil {
			slice = map[int]uint64{}
			for _, vb := range m.ActiveVBuckets(n.id) {
				if s, ok := wait[vb]; ok {
					slice[vb] = s
				}
			}
		}
		if err := fn(nb.viewEngine, slice); err != nil {
			return err
		}
	}
	return nil
}

// --- DML (routed through the data service) ---

func (s *clusterStore) InsertDoc(ctx context.Context, keyspace, id string, doc any, upsert bool) error {
	cl, err := s.c.OpenBucket(keyspace)
	if err != nil {
		return err
	}
	data := value.Marshal(doc)
	if upsert {
		_, err = cl.Set(ctx, id, data, 0)
		return err
	}
	_, err = cl.Add(ctx, id, data)
	return err
}

func (s *clusterStore) UpdateDoc(ctx context.Context, keyspace, id string, doc any, cas uint64) error {
	cl, err := s.c.OpenBucket(keyspace)
	if err != nil {
		return err
	}
	_, err = cl.Replace(ctx, id, value.Marshal(doc), cas)
	return dmlError(err)
}

func (s *clusterStore) DeleteDoc(ctx context.Context, keyspace, id string, cas uint64) error {
	cl, err := s.c.OpenBucket(keyspace)
	if err != nil {
		return err
	}
	return dmlError(cl.Delete(ctx, id, cas))
}

// dmlError tells the executor which failed CAS write to read again and
// which target is gone.
func dmlError(err error) error {
	switch {
	case errors.Is(err, cache.ErrCASMismatch):
		return fmt.Errorf("%w: %w", executor.ErrChanged, err)
	case errors.Is(err, cache.ErrKeyNotFound):
		return fmt.Errorf("%w: %w", executor.ErrNotFound, err)
	}
	return err
}

// --- view management + scatter/gather querying ---

// DefineView creates a view on every data node (views are local
// indexes co-located with the data, §3.3.1) and records it so nodes
// provisioned later build it too.
func (c *Cluster) DefineView(bucketName string, def views.Definition) error {
	b, err := c.bucket(bucketName)
	if err != nil {
		return err
	}
	b.mu.Lock()
	if b.viewDefs == nil {
		b.viewDefs = map[string]views.Definition{}
	}
	if _, dup := b.viewDefs[def.Name]; dup {
		b.mu.Unlock()
		return views.ErrViewExists
	}
	b.viewDefs[def.Name] = def
	b.mu.Unlock()
	for _, n := range c.Nodes() {
		nb, err := n.bucket(bucketName)
		if err != nil {
			continue
		}
		if err := nb.viewEngine.Define(def); err != nil && !errors.Is(err, views.ErrViewExists) {
			return err
		}
	}
	return nil
}

// DropView removes a view cluster-wide.
func (c *Cluster) DropView(bucketName, name string) error {
	b, err := c.bucket(bucketName)
	if err != nil {
		return err
	}
	b.mu.Lock()
	_, ok := b.viewDefs[name]
	delete(b.viewDefs, name)
	b.mu.Unlock()
	if !ok {
		return views.ErrNoSuchView
	}
	for _, n := range c.Nodes() {
		if nb, err := n.bucket(bucketName); err == nil {
			nb.viewEngine.Drop(name)
		}
	}
	return nil
}

// QueryView runs a view query with scatter/gather over the data nodes
// (Figure 8: "queries are sent to a randomly selected server within
// the cluster [which] sends the request to the other relevant servers
// ... and then aggregates their results").
func (c *Cluster) QueryView(ctx context.Context, bucketName, view string, opts views.QueryOptions) ([]views.Row, error) {
	var wait map[int]uint64
	if opts.Stale == views.StaleFalse {
		wait = c.ConsistencyVector(bucketName)
	}
	return c.queryViewRows(ctx, bucketName, view, opts, wait)
}

func (c *Cluster) queryViewRows(ctx context.Context, bucketName, view string, opts views.QueryOptions, wait map[int]uint64) ([]views.Row, error) {
	b, err := c.bucket(bucketName)
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	def, ok := b.viewDefs[view]
	b.mu.Unlock()
	if !ok {
		return nil, views.ErrNoSuchView
	}
	var parts [][]views.Row
	err = c.eachViewNode(b, wait, func(e *views.Engine, nodeWait map[int]uint64) error {
		nodeOpts := opts
		if wait != nil {
			nodeOpts.Stale = views.StaleFalse
			nodeOpts.WaitSeqnos = nodeWait
		}
		// Skip/limit cannot be pushed below the merge; trim after.
		nodeOpts.Skip = 0
		if opts.Limit > 0 {
			nodeOpts.Limit = opts.Limit + opts.Skip
		}
		rows, err := e.Query(ctx, view, nodeOpts)
		parts = append(parts, rows)
		return err
	})
	if err != nil {
		return nil, err
	}
	mergeReduce := ""
	if opts.Reduce {
		mergeReduce = def.Reduce
	}
	merged := views.MergeRows(mergeReduce, opts.Group, parts)
	if opts.Reduce && def.Reduce != "" && !opts.Group {
		return merged, nil
	}
	if opts.Descending {
		slices.Reverse(merged) // MergeRows sorts ascending
	}
	if opts.Skip > 0 {
		if opts.Skip >= len(merged) {
			merged = nil
		} else {
			merged = merged[opts.Skip:]
		}
	}
	if opts.Limit > 0 && len(merged) > opts.Limit {
		merged = merged[:opts.Limit]
	}
	return merged, nil
}

// FTS returns the bucket's full-text service instance.
func (c *Cluster) FTS(bucketName string) (*fts.Engine, error) {
	b, err := c.bucket(bucketName)
	if err != nil {
		return nil, err
	}
	return b.ftsEng, nil
}

// ErrNoAnalyticsNode enforces the MDS topology for the analytics
// service (§6.2).
var ErrNoAnalyticsNode = errors.New("core: no node runs the analytics service")

// EnableAnalytics starts shadowing a bucket into the analytics service
// ("fed via in-memory DCP"). Requires an analytics node.
func (c *Cluster) EnableAnalytics(bucketName string) error {
	if !c.hasService(cmap.ServiceAnalytics) {
		return ErrNoAnalyticsNode
	}
	b, err := c.bucket(bucketName)
	if err != nil {
		return err
	}
	return b.analyticsEng.Enable()
}

// AnalyticsQuery runs a query on the analytics service's shadow
// dataset — never touching the data service's cache or storage, the
// §6.2 performance-isolation property. General (non-key) joins are
// allowed here, unlike in the operational N1QL service. The ctx bounds
// a consistent query's wait.
func (c *Cluster) AnalyticsQuery(ctx context.Context, bucketName, statement string, opts analytics.QueryOptions) ([]any, error) {
	if !c.hasService(cmap.ServiceAnalytics) {
		return nil, ErrNoAnalyticsNode
	}
	b, err := c.bucket(bucketName)
	if err != nil {
		return nil, err
	}
	return b.analyticsEng.Query(ctx, statement, opts)
}
