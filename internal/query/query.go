// Package query implements the Query Service (paper §4.3.5): it takes
// a N1QL statement, plans it against the catalog, and executes it,
// coordinating with the index and data services. "The receiving node
// will analyze the query, use metadata on its referenced objects to
// choose the best execution plan, and execute the chosen plan."
package query

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"couchgo/internal/executor"
	"couchgo/internal/metrics"
	"couchgo/internal/n1ql"
	"couchgo/internal/planner"
	"couchgo/internal/trace"
)

// Store is everything the query service needs from the rest of the
// system: document fetch + index scans (executor.Datastore), catalog
// metadata (planner.Catalog), and index DDL routing.
type Store interface {
	executor.Datastore
	planner.Catalog
	// CatalogEpoch moves whenever the catalog may answer differently
	// (an index or keyspace created, built or dropped), no later than
	// the change can be seen; a plan is good for the epoch it was made in.
	CatalogEpoch() uint64
	// CreateIndex routes CREATE INDEX to the GSI service or the view
	// engine depending on USING (§3.3.1 vs §3.3.2).
	CreateIndex(ci *n1ql.CreateIndex) error
	DropIndex(keyspace, name string) error
	BuildIndex(keyspace, name string) error
}

// Result is a statement's outcome.
type Result struct {
	// Rows holds SELECT results (one JSON value each), RETURNING rows,
	// or for EXPLAIN a single plan document.
	Rows []any
	// MutationCount for DML.
	MutationCount int
	// Status is "success" or a DDL acknowledgement.
	Status string
	// Profile holds per-operator timings when the request asked for
	// `profile: timings` (opts.Prof was set).
	Profile []executor.PhaseTiming
}

// ErrEmptyStatement rejects blank input.
var ErrEmptyStatement = errors.New("query: empty statement")

// Engine executes N1QL statements against a Store. It parses and plans
// a statement text once (§4.5.1's prepared statements) and keeps the
// result, keyed by the text: later executions start at the pipeline.
type Engine struct {
	store Store

	mu       sync.RWMutex
	prepared map[string]*prepared
}

// maxPrepared bounds the prepared-plan cache; reaching it empties the
// cache, and the statements still in use are prepared again.
const maxPrepared = 1024

// prepared is one statement text parsed and planned, immutable and
// shared by concurrent executions.
type prepared struct {
	stmt n1ql.Statement
	// plan is what stmt (or an EXPLAIN's target) runs: *SelectPlan,
	// *MutationPlan or *InsertPlan; nil for index DDL.
	plan any
	// epoch is the catalog epoch the plan was made under; under any
	// other it is made again, never executed.
	epoch uint64
}

// Executions served from the cache, texts seen for the first time, and
// cached plans made again because the catalog had changed.
var (
	mCacheHits          = metrics.Default.Counter("couchgo_query_plan_cache_hits_total")
	mCacheMisses        = metrics.Default.Counter("couchgo_query_plan_cache_misses_total")
	mCacheInvalidations = metrics.Default.Counter("couchgo_query_plan_cache_invalidations_total")
)

// NewEngine creates a query engine.
func NewEngine(store Store) *Engine {
	return &Engine{store: store, prepared: map[string]*prepared{}}
}

// Execute runs one statement, preparing it first unless an earlier
// execution of the same text already has.
func (e *Engine) Execute(statement string, opts executor.Options) (*Result, error) {
	if statement == "" {
		return nil, ErrEmptyStatement
	}
	for replans := 0; ; replans++ {
		p, err := e.prepare(statement, opts)
		if err != nil {
			return nil, err
		}
		res, err := e.run(p, opts)
		// A SELECT that failed while the catalog changed has most likely
		// lost its index between plan and scan: plan again, twice at most.
		if _, reads := p.stmt.(*n1ql.Select); err != nil && reads && replans < 2 &&
			opts.Context().Err() == nil && e.store.CatalogEpoch() != p.epoch {
			opts.Prof.Reset()
			continue
		}
		if res != nil {
			res.Profile = opts.Prof.Timings()
		}
		return res, err
	}
}

// prepare returns the statement's prepared form, from the cache when it
// holds one planned under the current catalog epoch. The parse and plan
// phases are recorded either way; on a hit they are the lookup.
func (e *Engine) prepare(statement string, opts executor.Options) (*prepared, error) {
	t0 := time.Now()
	epoch := e.store.CatalogEpoch()
	e.mu.RLock()
	p := e.prepared[statement]
	e.mu.RUnlock()
	outcome, counter := "hit", mCacheHits
	var stmt n1ql.Statement
	switch {
	case p == nil:
		outcome, counter = "miss", mCacheMisses
		var err error
		if stmt, err = n1ql.Parse(statement); err != nil {
			return nil, err
		}
	case p.epoch != epoch:
		outcome, counter, stmt = "stale", mCacheInvalidations, p.stmt
	}
	counter.Inc()
	if sp := trace.FromContext(opts.Context()); sp != nil {
		sp.Annotate("plan_cache", outcome)
	}
	opts.Record("parse", t0, time.Since(t0), 0)
	tPlan := time.Now()
	if stmt != nil {
		plan, err := e.plan(stmt)
		if err != nil {
			return nil, err
		}
		p = &prepared{stmt: stmt, plan: plan, epoch: epoch}
		// DDL has no plan and an INSERT's text is its documents: neither
		// comes again, so neither is kept.
		if _, once := plan.(*planner.InsertPlan); plan != nil && !once {
			e.mu.Lock()
			if len(e.prepared) >= maxPrepared {
				clear(e.prepared)
			}
			e.prepared[statement] = p
			e.mu.Unlock()
		}
	}
	if _, ok := p.stmt.(*n1ql.Select); ok {
		opts.Record("plan", tPlan, time.Since(tPlan), 0)
	}
	return p, nil
}

// plan chooses what stmt runs.
func (e *Engine) plan(stmt n1ql.Statement) (any, error) {
	switch t := stmt.(type) {
	case *n1ql.Explain:
		// §4.5.3: "an EXPLAIN statement can be used before any N1QL
		// statement to request information about the execution plan".
		plan, err := e.plan(t.Target)
		if plan == nil && err == nil {
			err = fmt.Errorf("query: cannot EXPLAIN %T", t.Target)
		}
		return plan, err
	case *n1ql.Select:
		// §3.2.4: general joins are "not supported linguistically in
		// N1QL. Instead, joins are only allowed when one of the two
		// sides involves the primary key (document ID)". The analytics
		// service (internal/analytics) executes the general form.
		for _, j := range t.Joins {
			if j.OnCond != nil {
				return nil, fmt.Errorf("query: general (non-key) joins are not supported by N1QL (§3.2.4); use ON KEYS, or run the query on the analytics service")
			}
		}
		return planner.PlanSelect(t, e.store)
	case *n1ql.Update, *n1ql.Delete:
		return planner.PlanMutation(t, e.store)
	case *n1ql.Insert:
		return planner.PlanInsert(t, e.store)
	}
	return nil, nil
}

// run executes a prepared statement.
func (e *Engine) run(p *prepared, opts executor.Options) (*Result, error) {
	var mr *executor.MutationResult
	var err error
	switch t := p.stmt.(type) {
	case *n1ql.Explain:
		return &Result{Rows: []any{describe(t.Target, p.plan)}, Status: "success"}, nil
	case *n1ql.Select:
		plan := p.plan.(*planner.SelectPlan)
		if sp := trace.FromContext(opts.Context()); sp != nil {
			sp.Annotate("scan", planner.ScanSummary(plan.Scan))
		}
		rows, err := executor.ExecuteSelect(plan, e.store, opts)
		if err != nil {
			return nil, err
		}
		return &Result{Rows: rows, Status: "success"}, nil
	case *n1ql.Insert:
		mr, err = executor.ExecuteInsert(p.plan.(*planner.InsertPlan), e.store, opts)
	case *n1ql.Update:
		mr, err = executor.ExecuteUpdate(p.plan.(*planner.MutationPlan), e.store, opts)
	case *n1ql.Delete:
		mr, err = executor.ExecuteDelete(p.plan.(*planner.MutationPlan), e.store, opts)
	case *n1ql.CreateIndex:
		if err := e.store.CreateIndex(t); err != nil {
			return nil, err
		}
		return &Result{Status: "created"}, nil
	case *n1ql.DropIndex:
		if err := e.store.DropIndex(t.Keyspace, t.Name); err != nil {
			return nil, err
		}
		return &Result{Status: "dropped"}, nil
	default:
		return nil, fmt.Errorf("query: unsupported statement %T", p.stmt)
	}
	if err != nil {
		return nil, err
	}
	return &Result{Rows: mr.Returning, MutationCount: mr.MutationCount, Status: "success"}, nil
}

// describe renders an EXPLAIN's answer from its target's plan.
func describe(target n1ql.Statement, plan any) map[string]any {
	switch p := plan.(type) {
	case *planner.SelectPlan:
		return normalizePlan(p.Describe())
	case *planner.MutationPlan:
		desc := normalizePlan(p.Targets.Describe())
		desc["#mutation"] = "Update"
		if _, ok := target.(*n1ql.Delete); ok {
			desc["#mutation"] = "Delete"
		}
		return desc
	}
	return map[string]any{"#operator": "Insert", "keyspace": plan.(*planner.InsertPlan).Keyspace}
}

// normalizePlan converts the planner's map[string]any tree (which may
// contain []map[string]any) into plain JSON-encodable values.
func normalizePlan(m map[string]any) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		switch t := v.(type) {
		case []map[string]any:
			arr := make([]any, len(t))
			for i, e := range t {
				arr[i] = normalizePlan(e)
			}
			out[k] = arr
		case map[string]any:
			out[k] = normalizePlan(t)
		case []string:
			arr := make([]any, len(t))
			for i, s := range t {
				arr[i] = s
			}
			out[k] = arr
		default:
			out[k] = v
		}
	}
	return out
}
