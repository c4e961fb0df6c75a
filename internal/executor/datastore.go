// Package executor implements N1QL query execution: the operator
// pipeline of the paper's Figure 11 (scan → fetch → join/nest/unnest →
// filter → group → project → distinct → sort → offset → limit) plus
// DML execution. The pipeline is demand-driven: each operator hands a
// batch downstream only when asked, LIMIT/OFFSET say how many rows are
// still needed, and that demand reaches the index scan as its page
// size. "Some operations, like query parsing and planning, are
// done serially, while other operations, like fetch, join, and sort,
// are done in a local parallel (based on multicore) manner" — the Fetch
// operator here fans each batch out across a worker pool.
package executor

import (
	"context"
	"errors"

	"couchgo/internal/gsi"
	"couchgo/internal/n1ql"
)

// ErrNotFound is returned by Datastore.Fetch for absent documents.
var ErrNotFound = errors.New("executor: document not found")

// Datastore is the query service's view of the data and index services
// (§4.5.1: "the query service issues all key-value access requests ...
// an index simply returns the document ID for each attribute match").
type Datastore interface {
	// Fetch retrieves one document and its metadata by ID. ctx carries
	// the query's trace so KV fetches chain into the query trace.
	Fetch(ctx context.Context, keyspace, id string) (doc any, meta n1ql.Meta, err error)
	// ScanIndex serves one page of an index scan (GSI or view-backed,
	// §3.3): at most opts.Limit of the span's entries after opts.After,
	// in scan order, and whether more may follow the last one. A page
	// shorter than opts.Limit ends the span. opts.WaitSeqnos is the
	// request_plus vector; the executor sets it on the first page only.
	ScanIndex(ctx context.Context, keyspace, index string, using n1ql.IndexUsing, opts gsi.ScanOptions) (page []gsi.ScanItem, more bool, err error)
	// ConsistencyVector reports the data service's current per-vBucket
	// high seqnos, captured at query start for request_plus.
	ConsistencyVector(keyspace string) map[int]uint64

	// DML surface.
	InsertDoc(ctx context.Context, keyspace, id string, doc any, upsert bool) error
	UpdateDoc(ctx context.Context, keyspace, id string, doc any) error
	DeleteDoc(ctx context.Context, keyspace, id string) error
}

// Consistency selects the §3.2.3 scan_consistency level.
type Consistency int

const (
	// NotBounded "returns the query with the lowest latency ... the
	// query output can be arbitrarily out-of-date".
	NotBounded Consistency = iota
	// RequestPlus "requires all mutations, up to the moment of the
	// query request, to be processed before query execution can begin".
	RequestPlus
)

// Options parameterize one execution.
type Options struct {
	Params      map[string]any
	Consistency Consistency
	// FetchParallelism bounds the fetch worker pool (default 8).
	FetchParallelism int
	// Prof, when non-nil, collects per-operator timings for the
	// response's `profile: timings` section.
	Prof *Profile
	// Ctx carries the request trace (and future cancellation) through
	// execution. A zero Options executes with context.Background().
	Ctx context.Context
}

// Context returns opts.Ctx, or context.Background() when unset.
func (o Options) Context() context.Context {
	if o.Ctx != nil {
		return o.Ctx
	}
	return context.Background()
}
