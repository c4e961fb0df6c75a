// Package query implements the Query Service (paper §4.3.5): it takes
// a N1QL statement, plans it against the catalog, and executes it,
// coordinating with the index and data services. "The receiving node
// will analyze the query, use metadata on its referenced objects to
// choose the best execution plan, and execute the chosen plan."
package query

import (
	"errors"
	"fmt"
	"time"

	"couchgo/internal/executor"
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

// Engine executes N1QL statements against a Store.
type Engine struct {
	store Store
}

// NewEngine creates a query engine.
func NewEngine(store Store) *Engine { return &Engine{store: store} }

// Execute parses, plans, and runs one statement.
func (e *Engine) Execute(statement string, opts executor.Options) (*Result, error) {
	if statement == "" {
		return nil, ErrEmptyStatement
	}
	t0 := time.Now()
	stmt, err := n1ql.Parse(statement)
	if err != nil {
		return nil, err
	}
	opts.Record("parse", t0, time.Since(t0), 0)
	return e.ExecuteStmt(stmt, opts)
}

// ExecuteStmt runs an already-parsed statement.
func (e *Engine) ExecuteStmt(stmt n1ql.Statement, opts executor.Options) (*Result, error) {
	res, err := e.executeStmt(stmt, opts)
	if res != nil {
		res.Profile = opts.Prof.Timings()
	}
	return res, err
}

func (e *Engine) executeStmt(stmt n1ql.Statement, opts executor.Options) (*Result, error) {
	switch t := stmt.(type) {
	case *n1ql.Explain:
		return e.explain(t)
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
		tPlan := time.Now()
		p, err := planner.PlanSelect(t, e.store)
		if err != nil {
			return nil, err
		}
		opts.Record("plan", tPlan, time.Since(tPlan), 0)
		if sp := trace.FromContext(opts.Context()); sp != nil {
			sp.Annotate("scan", planner.ScanSummary(p.Scan))
		}
		rows, err := executor.ExecuteSelect(p, e.store, opts)
		if err != nil {
			return nil, err
		}
		return &Result{Rows: rows, Status: "success"}, nil
	case *n1ql.Insert:
		mr, err := executor.ExecuteInsert(t, e.store, e.store, opts)
		if err != nil {
			return nil, err
		}
		return &Result{Rows: mr.Returning, MutationCount: mr.MutationCount, Status: "success"}, nil
	case *n1ql.Update:
		mr, err := executor.ExecuteUpdate(t, e.store, e.store, opts)
		if err != nil {
			return nil, err
		}
		return &Result{Rows: mr.Returning, MutationCount: mr.MutationCount, Status: "success"}, nil
	case *n1ql.Delete:
		mr, err := executor.ExecuteDelete(t, e.store, e.store, opts)
		if err != nil {
			return nil, err
		}
		return &Result{Rows: mr.Returning, MutationCount: mr.MutationCount, Status: "success"}, nil
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
	}
	return nil, fmt.Errorf("query: unsupported statement %T", stmt)
}

// explain plans without executing (§4.5.3: "an EXPLAIN statement can be
// used before any N1QL statement to request information about the
// execution plan").
func (e *Engine) explain(ex *n1ql.Explain) (*Result, error) {
	switch t := ex.Target.(type) {
	case *n1ql.Select:
		p, err := planner.PlanSelect(t, e.store)
		if err != nil {
			return nil, err
		}
		return &Result{Rows: []any{normalizePlan(p.Describe())}, Status: "success"}, nil
	case *n1ql.Insert:
		return &Result{Rows: []any{map[string]any{"#operator": "Insert", "keyspace": t.Keyspace}}, Status: "success"}, nil
	case *n1ql.Update, *n1ql.Delete:
		ks, alias, useKeys, where, limit := mutationParts(t)
		sel := &n1ql.Select{
			Keyspace: ks, Alias: alias, UseKeys: useKeys, Where: where, Limit: limit,
			Projection: []n1ql.ResultTerm{{Star: true}},
		}
		p, err := planner.PlanSelect(sel, e.store)
		if err != nil {
			return nil, err
		}
		name := "Update"
		if _, ok := t.(*n1ql.Delete); ok {
			name = "Delete"
		}
		desc := normalizePlan(p.Describe())
		desc["#mutation"] = name
		return &Result{Rows: []any{desc}, Status: "success"}, nil
	}
	return nil, fmt.Errorf("query: cannot EXPLAIN %T", ex.Target)
}

func mutationParts(stmt n1ql.Statement) (ks, alias string, useKeys, where, limit n1ql.Expr) {
	switch t := stmt.(type) {
	case *n1ql.Update:
		return t.Keyspace, t.Alias, t.UseKeys, t.Where, t.Limit
	case *n1ql.Delete:
		return t.Keyspace, t.Alias, t.UseKeys, t.Where, t.Limit
	}
	return "", "", nil, nil, nil
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
