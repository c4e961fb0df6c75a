// Package couchgo is a from-scratch Go reproduction of the system in
// "Have Your Data and Query It Too: From Key-Value Caching to Big Data
// Management" (SIGMOD 2016): a memory-first, shared-nothing,
// auto-partitioned, distributed NoSQL document database offering both
// key-based and secondary-index-based access paths, with API- and
// query-based (N1QL) data access.
//
// Quick start:
//
//	cluster, _ := couchgo.NewCluster(couchgo.ClusterOptions{})
//	defer cluster.Close()
//	cluster.AddNode("node0", couchgo.AllServices)
//	cluster.CreateBucket("default", couchgo.BucketOptions{})
//	bucket, _ := cluster.Bucket("default")
//
//	bucket.Upsert("user::1", map[string]any{"name": "Dipti"})
//	doc, _ := bucket.Get("user::1")
//
//	cluster.Query(`CREATE PRIMARY INDEX ON default`)
//	res, _ := cluster.Query(`SELECT name FROM default WHERE name = "Dipti"`)
//
// See DESIGN.md for the architecture and the mapping to the paper.
package couchgo

import (
	"context"
	"encoding/json"
	"time"

	"couchgo/internal/analytics"
	"couchgo/internal/cache"
	"couchgo/internal/cmap"
	"couchgo/internal/core"
	"couchgo/internal/executor"
	"couchgo/internal/fts"
	"couchgo/internal/value"
	"couchgo/internal/vbucket"
	"couchgo/internal/views"
	"couchgo/internal/xdcr"
)

// Services is a bitmask of the multi-dimensional-scaling services a
// node runs (paper §4.4). Combine with bitwise OR.
type Services = cmap.ServiceSet

// The services a node can run.
const (
	DataService      = Services(cmap.ServiceData)
	IndexService     = Services(cmap.ServiceIndex)
	QueryService     = Services(cmap.ServiceQuery)
	FullTextService  = Services(cmap.ServiceFTS)
	AnalyticsService = Services(cmap.ServiceAnalytics)
)

// AllServices runs everything on one node (the paper's uniform
// deployment).
const AllServices = cmap.AllServices

// Errors surfaced by the public API.
var (
	// ErrKeyNotFound: the document does not exist (or is expired).
	ErrKeyNotFound = cache.ErrKeyNotFound
	// ErrKeyExists: Insert of an existing key.
	ErrKeyExists = cache.ErrKeyExists
	// ErrCASMismatch: optimistic-locking conflict; re-read and retry.
	ErrCASMismatch = cache.ErrCASMismatch
	// ErrLocked: the document is hard-locked (GetAndLock).
	ErrLocked = cache.ErrLocked
	// ErrTimeout: a durability requirement wasn't met in time.
	ErrTimeout = vbucket.ErrTimeout
)

// ClusterOptions configure a new cluster.
type ClusterOptions struct {
	// Dir is the storage root. Empty = a fresh temp directory.
	Dir string
	// NumVBuckets is the partition count (default 1024, as the paper
	// fixes it; lower it only for tests and small experiments).
	NumVBuckets int
	// SyncPersist fsyncs every flushed batch.
	SyncPersist bool
	// DiskDelay injects simulated device latency per flush batch.
	DiskDelay time.Duration
	// FailoverTimeout enables automatic failover of unresponsive nodes
	// after this grace period (0 = manual failover only).
	FailoverTimeout time.Duration
}

// BucketOptions configure a bucket.
type BucketOptions struct {
	// NumReplicas is the intra-cluster replica count (0–3).
	NumReplicas int
	// MemoryQuotaBytes bounds the integrated cache.
	MemoryQuotaBytes int64
	// FullEviction lets the pager evict keys and metadata too (§4.3.3);
	// default is value-only eviction.
	FullEviction bool
}

// Cluster is a couchgo cluster handle.
type Cluster struct {
	c *core.Cluster
}

// NewCluster creates a cluster. Add nodes, then create buckets.
func NewCluster(opts ClusterOptions) (*Cluster, error) {
	c, err := core.NewCluster(core.Config{
		Dir:             opts.Dir,
		NumVBuckets:     opts.NumVBuckets,
		SyncPersist:     opts.SyncPersist,
		DiskDelay:       opts.DiskDelay,
		FailoverTimeout: opts.FailoverTimeout,
	})
	if err != nil {
		return nil, err
	}
	return &Cluster{c: c}, nil
}

// AddNode joins a node running the given services.
func (c *Cluster) AddNode(name string, services Services) error {
	_, err := c.c.AddNode(cmap.NodeID(name), services)
	return err
}

// CreateBucket provisions a bucket across the data nodes.
func (c *Cluster) CreateBucket(name string, opts BucketOptions) error {
	return c.c.CreateBucket(name, core.BucketOptions{
		NumReplicas:      opts.NumReplicas,
		MemoryQuotaBytes: opts.MemoryQuotaBytes,
		FullEviction:     opts.FullEviction,
	})
}

// Bucket opens a smart-client handle for a bucket.
func (c *Cluster) Bucket(name string) (*Bucket, error) {
	cl, err := c.c.OpenBucket(name)
	if err != nil {
		return nil, err
	}
	return &Bucket{c: c.c, cl: cl, name: name}, nil
}

// Rebalance redistributes partitions over the current data nodes.
func (c *Cluster) Rebalance() error { return c.c.Rebalance() }

// Failover promotes replicas of a failed node's partitions.
func (c *Cluster) Failover(node string) error { return c.c.Failover(cmap.NodeID(node)) }

// Kill simulates a node crash (for failure testing).
func (c *Cluster) Kill(node string) error { return c.c.Kill(cmap.NodeID(node)) }

// Orchestrator reports the elected orchestrator node.
func (c *Cluster) Orchestrator() string { return string(c.c.Orchestrator()) }

// Close shuts the cluster down.
func (c *Cluster) Close() { c.c.Close() }

// Internal exposes the underlying engine for advanced integrations
// (the REST layer and benchmarks use it).
func (c *Cluster) Internal() *core.Cluster { return c.c }

// --- N1QL ---

// Consistency selects the scan_consistency level of §3.2.3.
type Consistency int

const (
	// NotBounded is the low-latency default: the query sees whatever
	// the index has processed.
	NotBounded Consistency = iota
	// RequestPlus waits for all mutations up to query submission —
	// read-your-own-writes.
	RequestPlus
)

// QueryOptions parameterize one N1QL execution.
type QueryOptions struct {
	// Args supplies named ($name) and positional ($1...) parameters.
	Args map[string]any
	// Consistency is the scan-consistency level.
	Consistency Consistency
}

// QueryResult is a N1QL statement result.
type QueryResult struct {
	// Rows holds one JSON value per result row.
	Rows []any
	// MutationCount for DML statements.
	MutationCount int
	// Status is "success", "created", or "dropped".
	Status string
}

// Query runs a N1QL statement with default options.
func (c *Cluster) Query(statement string) (*QueryResult, error) {
	return c.QueryWithOptions(statement, QueryOptions{})
}

// QueryWithOptions runs a N1QL statement.
func (c *Cluster) QueryWithOptions(statement string, opts QueryOptions) (*QueryResult, error) {
	cons := executor.NotBounded
	if opts.Consistency == RequestPlus {
		cons = executor.RequestPlus
	}
	res, err := c.c.Query(statement, executor.Options{Params: opts.Args, Consistency: cons})
	if err != nil {
		return nil, err
	}
	return &QueryResult{Rows: res.Rows, MutationCount: res.MutationCount, Status: res.Status}, nil
}

// --- KV (the memcached-heritage API of §3.1.1) ---

// Document is a fetched document with its concurrency metadata.
type Document struct {
	ID      string
	Content []byte
	CAS     uint64
	Expiry  int64
}

// Decode unmarshals the document body into v.
func (d Document) Decode(v any) error { return json.Unmarshal(d.Content, v) }

// DurabilityOptions are the per-mutation durability knobs of §2.3.2.
type DurabilityOptions struct {
	// ReplicateTo waits for N replica acknowledgements (memory-to-
	// memory, much cheaper than persistence).
	ReplicateTo int
	// PersistTo waits for the mutation to hit the active node's disk.
	PersistTo bool
	// Timeout bounds the wait (default 10s).
	Timeout time.Duration
}

// WriteOptions combine all per-write knobs.
type WriteOptions struct {
	// CAS enables optimistic locking: the write applies only if the
	// document's CAS still matches.
	CAS uint64
	// Expiry is an absolute unix-seconds TTL (0 = none).
	Expiry int64
	// Flags is opaque application metadata.
	Flags      uint32
	Durability DurabilityOptions
}

// Bucket is a per-bucket handle: KV, views, and search.
type Bucket struct {
	c    *core.Cluster
	cl   *core.Client
	name string
}

// Name returns the bucket name.
func (b *Bucket) Name() string { return b.name }

func encodeBody(doc any) ([]byte, error) {
	switch t := doc.(type) {
	case []byte:
		return t, nil
	case json.RawMessage:
		return []byte(t), nil
	case string:
		return []byte(t), nil
	default:
		return json.Marshal(doc)
	}
}

func toDocument(key string, it cache.Item) Document {
	return Document{ID: key, Content: it.Value, CAS: it.CAS, Expiry: it.Expiry}
}

// Get fetches a document by key.
func (b *Bucket) Get(key string) (Document, error) {
	it, err := b.cl.Get(context.Background(), key)
	if err != nil {
		return Document{}, err
	}
	return toDocument(key, it), nil
}

// Upsert stores a document (insert-or-replace). doc may be []byte,
// string (raw JSON), or any JSON-marshalable value.
func (b *Bucket) Upsert(key string, doc any) (uint64, error) {
	return b.Write(key, doc, WriteOptions{})
}

// Insert stores a document that must not already exist.
func (b *Bucket) Insert(key string, doc any) (uint64, error) {
	body, err := encodeBody(doc)
	if err != nil {
		return 0, err
	}
	it, err := b.cl.Add(context.Background(), key, body)
	if err != nil {
		return 0, err
	}
	return it.CAS, nil
}

// Replace stores a document that must already exist. cas=0 skips the
// optimistic check.
func (b *Bucket) Replace(key string, doc any, cas uint64) (uint64, error) {
	body, err := encodeBody(doc)
	if err != nil {
		return 0, err
	}
	it, err := b.cl.Replace(context.Background(), key, body, cas)
	if err != nil {
		return 0, err
	}
	return it.CAS, nil
}

// Write stores a document with full options, returning the new CAS.
func (b *Bucket) Write(key string, doc any, opts WriteOptions) (uint64, error) {
	body, err := encodeBody(doc)
	if err != nil {
		return 0, err
	}
	it, err := b.cl.SetWithOptions(context.Background(), key, body, opts.Flags, opts.Expiry, opts.CAS, core.DurabilityOptions{
		ReplicateTo: opts.Durability.ReplicateTo,
		PersistTo:   opts.Durability.PersistTo,
		Timeout:     opts.Durability.Timeout,
	})
	if err != nil {
		return 0, err
	}
	return it.CAS, nil
}

// Remove deletes a document. cas=0 skips the optimistic check.
func (b *Bucket) Remove(key string, cas uint64) error {
	return b.cl.Delete(context.Background(), key, cas)
}

// Touch updates a document's TTL without changing its value.
func (b *Bucket) Touch(key string, expiry int64) error {
	return b.cl.Touch(context.Background(), key, expiry)
}

// --- Sub-document API (path-level lookups and mutations) ---

// LookupIn reads the value at a path inside a document without
// fetching the whole document.
func (b *Bucket) LookupIn(key, path string) (any, error) {
	return b.cl.SubdocGet(context.Background(), key, path)
}

// MutateIn writes the value at a path inside a document atomically,
// creating intermediate objects as needed. cas=0 skips the check.
func (b *Bucket) MutateIn(key, path string, v any, cas uint64) (uint64, error) {
	it, err := b.cl.SubdocSet(context.Background(), key, path, v, cas)
	return it.CAS, err
}

// RemoveIn deletes the field at a path inside a document atomically.
func (b *Bucket) RemoveIn(key, path string, cas uint64) (uint64, error) {
	it, err := b.cl.SubdocRemove(context.Background(), key, path, cas)
	return it.CAS, err
}

// ArrayAppendIn appends v to the array at a path atomically (the
// array is created if absent).
func (b *Bucket) ArrayAppendIn(key, path string, v any, cas uint64) (uint64, error) {
	it, err := b.cl.SubdocArrayAppend(context.Background(), key, path, v, cas)
	return it.CAS, err
}

// Increment atomically adds delta to the number at a path and returns
// the new value (created as delta when absent).
func (b *Bucket) Increment(key, path string, delta float64) (float64, error) {
	return b.cl.SubdocCounter(context.Background(), key, path, delta, 0)
}

// GetAndLock fetches the document and takes the hard lock for up to
// lockSeconds (released early by a write using the returned CAS, or by
// Unlock).
func (b *Bucket) GetAndLock(key string, lockSeconds int64) (Document, error) {
	it, err := b.cl.GetAndLock(context.Background(), key, lockSeconds)
	if err != nil {
		return Document{}, err
	}
	return toDocument(key, it), nil
}

// Unlock releases the hard lock using the CAS from GetAndLock.
func (b *Bucket) Unlock(key string, cas uint64) error {
	return b.cl.Unlock(context.Background(), key, cas)
}

// --- Views (the MapReduce-style local indexes of §3.1.2) ---

// ViewDefinition declares a view. Map expressions use the N1QL
// expression language with the document bound as `doc` (this replaces
// the paper's JavaScript map functions; see DESIGN.md substitutions).
type ViewDefinition struct {
	// Filter guards emission (like the `if` in a JS map function).
	Filter string
	// Key is the emitted index key expression (required).
	Key string
	// Value is the emitted value expression (optional).
	Value string
	// Reduce is "", "_count", "_sum", "_stats", "_min", or "_max". The
	// reduce results are pre-computed inside the index B-tree.
	Reduce string
}

// Staleness controls view-query consistency (§3.1.2's stale param).
type Staleness = views.Staleness

// Stale parameter values.
const (
	// StaleOK returns current index contents without waiting.
	StaleOK = views.StaleOK
	// StaleFalse waits for the indexer to process all current changes.
	StaleFalse = views.StaleFalse
	// StaleUpdateAfter returns current contents, then updates (the
	// server default).
	StaleUpdateAfter = views.StaleUpdateAfter
)

// ViewRow is one view query result.
type ViewRow = views.Row

// ViewQueryOptions mirror the view REST API parameters.
type ViewQueryOptions struct {
	Key          any
	HasKey       bool
	Keys         []any
	StartKey     any
	EndKey       any
	HasStart     bool
	HasEnd       bool
	InclusiveEnd bool
	Descending   bool
	Limit        int
	Skip         int
	Reduce       bool
	Group        bool
	Stale        Staleness
}

// DefineView creates a view on every data node.
func (b *Bucket) DefineView(name string, def ViewDefinition) error {
	return b.c.DefineView(b.name, views.Definition{
		Name: name,
		Map: views.MapSpec{
			Filter: def.Filter,
			Key:    def.Key,
			Value:  def.Value,
		},
		Reduce: def.Reduce,
	})
}

// DropView removes a view cluster-wide.
func (b *Bucket) DropView(name string) error { return b.c.DropView(b.name, name) }

// ViewQuery runs a scatter/gather view query (Figure 8).
func (b *Bucket) ViewQuery(name string, opts ViewQueryOptions) ([]ViewRow, error) {
	return b.c.QueryView(context.Background(), b.name, name, views.QueryOptions{
		Key: opts.Key, HasKey: opts.HasKey, Keys: opts.Keys,
		StartKey: opts.StartKey, EndKey: opts.EndKey,
		HasStart: opts.HasStart, HasEnd: opts.HasEnd,
		InclusiveEnd: opts.InclusiveEnd, Descending: opts.Descending,
		Limit: opts.Limit, Skip: opts.Skip,
		Reduce: opts.Reduce, Group: opts.Group,
		Stale: opts.Stale,
	})
}

// --- Full-text search (§6.1.3) ---

// SearchHit is one full-text result.
type SearchHit = fts.Hit

// CreateSearchIndex defines a full-text index over the listed document
// fields (empty = every top-level string field).
func (b *Bucket) CreateSearchIndex(name string, fields ...string) error {
	eng, err := b.c.FTS(b.name)
	if err != nil {
		return err
	}
	return eng.Define(fts.IndexDef{Name: name, Fields: fields})
}

// DropSearchIndex removes a full-text index.
func (b *Bucket) DropSearchIndex(name string) error {
	eng, err := b.c.FTS(b.name)
	if err != nil {
		return err
	}
	return eng.Drop(name)
}

// SearchKind selects the query type.
type SearchKind int

// Search query kinds.
const (
	SearchTerm SearchKind = iota
	SearchPrefix
	SearchPhrase
)

// Search runs a full-text query. consistent=true gives
// read-your-own-writes semantics.
func (b *Bucket) Search(index string, kind SearchKind, text string, limit int, consistent bool) ([]SearchHit, error) {
	eng, err := b.c.FTS(b.name)
	if err != nil {
		return nil, err
	}
	opts := fts.SearchOptions{Limit: limit}
	if consistent {
		opts.WaitSeqnos = b.c.ConsistencyVector(b.name)
	}
	switch kind {
	case SearchPrefix:
		return eng.SearchPrefix(context.Background(), index, text, opts)
	case SearchPhrase:
		return eng.SearchPhrase(context.Background(), index, text, opts)
	default:
		return eng.SearchTerm(context.Background(), index, text, opts)
	}
}

// --- XDCR (§4.6) ---

// XDCROptions configure a cross-cluster replication.
type XDCROptions struct {
	// FilterExpr restricts replication to document IDs matching this
	// regular expression.
	FilterExpr string
}

// Replication is a running XDCR stream; Stop ends it.
type Replication struct {
	r *xdcr.Replicator
}

// Stop halts the replication.
func (r *Replication) Stop() { r.r.Stop() }

// Stats reports sent/applied/rejected/filtered counters.
func (r *Replication) Stats() xdcr.Stats { return r.r.Stats() }

// ReplicateTo starts XDCR from a bucket on this cluster to a bucket on
// dst. Call it on both clusters (swapped) for bidirectional
// replication; conflict resolution converges both sides.
func (c *Cluster) ReplicateTo(dst *Cluster, srcBucket, dstBucket string, opts XDCROptions) (*Replication, error) {
	dest, err := dst.c.OpenBucket(dstBucket)
	if err != nil {
		return nil, err
	}
	r, err := xdcr.Start(c.c, srcBucket, dest, xdcr.Options{FilterExpr: opts.FilterExpr})
	if err != nil {
		return nil, err
	}
	return &Replication{r: r}, nil
}

// --- Analytics (§6.2, implemented future work) ---

// AnalyticsOptions parameterize an analytics query.
type AnalyticsOptions struct {
	// Args supplies query parameters.
	Args map[string]any
	// Consistent makes the query wait until the analytics shadow has
	// processed every mutation acknowledged before the call.
	Consistent bool
}

// EnableAnalytics starts shadowing a bucket into the analytics
// service (requires a node running AnalyticsService). The shadow is
// fed by DCP and isolated from the data service.
func (c *Cluster) EnableAnalytics(bucket string) error {
	return c.c.EnableAnalytics(bucket)
}

// AnalyticsQuery runs a read-only analytical query over the bucket's
// shadow dataset. Unlike Query, general (non-key) joins are supported
// — the "much wider range of queries" of the paper's §6.2 — and the
// execution never touches the operational data service.
func (c *Cluster) AnalyticsQuery(bucket, statement string, opts AnalyticsOptions) ([]any, error) {
	aopts := analytics.QueryOptions{Params: opts.Args}
	if opts.Consistent {
		aopts.WaitSeqnos = c.c.ConsistencyVector(bucket)
	}
	return c.c.AnalyticsQuery(context.Background(), bucket, statement, aopts)
}

// MustJSON is a tiny helper converting a Go value to the JSON value
// representation used by query results (handy in tests and examples).
func MustJSON(src string) any { return value.MustParse(src) }
