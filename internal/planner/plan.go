// Package planner implements N1QL query planning (paper §4.5): "the
// N1QL query planner analyzes the query and available access path
// options for each keyspace in the query to pick an appropriate plan
// ... The planner needs to first select the access path for each
// bucket, determine the join order, and then determine the type of the
// join operation."
//
// The access paths are the three scans of §4.5.3 — KeyScan (USE KEYS),
// IndexScan (a qualifying view or GSI secondary index), and PrimaryScan
// (the full-scan fallback) — plus the covering-index optimization of
// §5.1.2 that skips the Fetch entirely when the index already contains
// every field the query needs.
package planner

import (
	"fmt"

	"couchgo/internal/n1ql"
)

// IndexInfo is the catalog's description of one available index.
type IndexInfo struct {
	Name           string
	Using          n1ql.IndexUsing
	IsPrimary      bool
	SecCanonical   []string // formalized key expressions
	WhereCanonical string   // formalized partial-index predicate
	IsArray        bool
	Built          bool
}

// Catalog resolves keyspaces and their indexes (the Query Catalog
// component of §4.3.5).
type Catalog interface {
	KeyspaceExists(name string) bool
	Indexes(keyspace string) []IndexInfo
}

// Span is a one-dimensional range over an index's leading keys. All
// bound expressions must be constant (literals/parameters), evaluated
// once at execution start.
type Span struct {
	// Equal, when set, is a full equality key on the leading columns.
	Equal    []n1ql.Expr
	Low      []n1ql.Expr
	High     []n1ql.Expr
	LowIncl  bool
	HighIncl bool
}

// IsFull reports whether the span covers the whole index.
func (s Span) IsFull() bool {
	return s.Equal == nil && s.Low == nil && s.High == nil
}

// resolved returns the span with its bounds resolved in sc.
func (s Span) resolved(sc *n1ql.Scope) Span {
	s.Equal, s.Low, s.High = sc.ResolveAll(s.Equal), sc.ResolveAll(s.Low), sc.ResolveAll(s.High)
	return s
}

func exprStrings(es []n1ql.Expr) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.String()
	}
	return out
}

// Describe renders the span for EXPLAIN output.
func (s Span) Describe() map[string]any {
	out := map[string]any{}
	if s.Equal != nil {
		out["equal"] = exprStrings(s.Equal)
	}
	if s.Low != nil {
		out["low"] = exprStrings(s.Low)
		out["low_inclusive"] = s.LowIncl
	}
	if s.High != nil {
		out["high"] = exprStrings(s.High)
		out["high_inclusive"] = s.HighIncl
	}
	if s.IsFull() {
		out["full"] = true
	}
	return out
}

// Scan is the chosen keyspace access path.
type Scan interface {
	Describe() map[string]any
}

// KeyScan retrieves documents for explicitly provided IDs (USE KEYS,
// §4.5.3: "when specific document IDs (primary keys) are available").
type KeyScan struct {
	Keys n1ql.Expr
}

func (k *KeyScan) Describe() map[string]any {
	return map[string]any{"#operator": "KeyScan", "keys": k.Keys.String()}
}

// IndexScan filters the keyspace through a secondary index, returning
// qualifying document IDs (and key values, for covering scans).
type IndexScan struct {
	Index   string
	Using   n1ql.IndexUsing
	Span    Span
	Reverse bool
	// Covering: the scan satisfies the whole query; no Fetch needed.
	Covering bool
}

func (s *IndexScan) Describe() map[string]any {
	out := map[string]any{
		"#operator": "IndexScan",
		"index":     s.Index,
		"using":     s.Using.String(),
		"spans":     s.Span.Describe(),
	}
	if s.Covering {
		out["covering"] = true
	}
	if s.Reverse {
		out["reverse"] = true
	}
	return out
}

// PrimaryScan is the full-scan fallback (§4.5.3: "the equivalent of a
// full table scan ... quite expensive, and the average time to return
// results increases linearly with the number of documents").
type PrimaryScan struct {
	Index string
	Using n1ql.IndexUsing
	Span  Span // meta().id ranges still sarg onto the primary index
}

func (s *PrimaryScan) Describe() map[string]any {
	return map[string]any{
		"#operator": "PrimaryScan",
		"index":     s.Index,
		"using":     s.Using.String(),
		"spans":     s.Span.Describe(),
	}
}

// ScanSummary names a plan's access path in one token — e.g.
// "IndexScan(idx_age)" or "PrimaryScan" — compact enough for a trace
// annotation or log line where Describe() would be too much.
func ScanSummary(s Scan) string {
	switch t := s.(type) {
	case *KeyScan:
		return "KeyScan"
	case *IndexScan:
		if t.Covering {
			return "IndexScan(" + t.Index + ",covering)"
		}
		return "IndexScan(" + t.Index + ")"
	case *PrimaryScan:
		return "PrimaryScan(" + t.Index + ")"
	case nil:
		return "ExpressionScan"
	default:
		return fmt.Sprintf("%T", s)
	}
}

// Binding is a name a row carries and the slot its value is in.
type Binding struct {
	Name string
	Slot int
}

// Join is a join term and the slots its alias's document and metadata
// are written to (a NEST leaves the metadata unset).
type Join struct {
	n1ql.JoinTerm
	Slot, MetaSlot int
}

// Unnest is an UNNEST term and the slot of the element it binds.
type Unnest struct {
	n1ql.UnnestTerm
	Slot int
}

// Aggregate is one distinct aggregate call, its argument resolved for
// the rows of a group, and the slot the group's result is written to.
type Aggregate struct {
	*n1ql.FuncCall
	Slot int
}

// SelectPlan is the full plan for a SELECT: the scan followed by the
// Figure-11 operator pipeline (Fetch → Join/Nest/Unnest → Filter →
// Group → Project → Distinct → Sort → Offset → Limit). A row is
// Scope.Len() slots (the FROM alias's document and metadata in
// n1ql.DocSlot and MetaSlot) and every expression below is resolved to
// read them: a finished plan is immutable and may run concurrently.
type SelectPlan struct {
	Keyspace string
	Alias    string
	Scope    *n1ql.Scope
	Scan     Scan
	// Fetch is false for covering scans and FROM-less selects.
	Fetch bool

	Joins   []Join
	Unnests []Unnest
	// Stars are the bindings a plain * projects: the FROM, JOIN/NEST and
	// UNNEST aliases.
	Stars []Binding

	// Where is the residual filter (possibly cover-rewritten).
	Where n1ql.Expr

	GroupBy []n1ql.Expr
	Having  n1ql.Expr
	// Aggregates collected from projection/having/order, in discovery
	// order; the executor binds their results per group.
	Aggregates []Aggregate

	// Projection terms carry their result name in Alias.
	Projection []n1ql.ResultTerm
	Raw        bool
	Distinct   bool

	OrderBy []n1ql.OrderTerm
	// OrderFromIndex: the index scan already delivers ORDER BY order.
	OrderFromIndex bool
	Limit, Offset  n1ql.Expr

	// CoverID / Cover: the slots the executor fills from the index scan
	// for covering plans. Cover[i] receives SecKey[i]; CoverID the
	// document ID, and is -1 when nothing reads it.
	CoverID int
	Cover   []int
}

// Describe renders the plan tree for EXPLAIN (§4.5.3's EXPLAIN
// statement), operator by operator in execution order.
func (p *SelectPlan) Describe() map[string]any {
	var ops []map[string]any
	if p.Scan != nil {
		ops = append(ops, p.Scan.Describe())
	}
	if p.Fetch {
		ops = append(ops, map[string]any{"#operator": "Fetch", "keyspace": p.Keyspace, "as": p.Alias})
	}
	for _, j := range p.Joins {
		name := "Join"
		if j.Nest {
			name = "Nest"
		}
		op := map[string]any{"#operator": name, "keyspace": j.Keyspace, "as": j.Alias}
		if j.OnKeys != nil {
			op["on_keys"] = j.OnKeys.String()
		} else if j.OnCond != nil {
			op["on"] = j.OnCond.String()
			op["method"] = "hash/nested-loop"
		}
		if j.Kind == n1ql.JoinLeftOuter {
			op["outer"] = true
		}
		ops = append(ops, op)
	}
	for _, u := range p.Unnests {
		op := map[string]any{"#operator": "Unnest", "expr": u.Expr.String(), "as": u.Alias}
		if u.Kind == n1ql.JoinLeftOuter {
			op["outer"] = true
		}
		ops = append(ops, op)
	}
	if p.Where != nil {
		ops = append(ops, map[string]any{"#operator": "Filter", "condition": p.Where.String()})
	}
	if len(p.GroupBy) > 0 || len(p.Aggregates) > 0 {
		op := map[string]any{"#operator": "Group", "by": exprStrings(p.GroupBy)}
		var aggs []string
		for _, a := range p.Aggregates {
			aggs = append(aggs, a.String())
		}
		op["aggregates"] = aggs
		ops = append(ops, op)
		if p.Having != nil {
			ops = append(ops, map[string]any{"#operator": "Filter", "condition": p.Having.String()})
		}
	}
	var proj []string
	for _, rt := range p.Projection {
		switch {
		case rt.Star && rt.Expr == nil:
			proj = append(proj, "*")
		case rt.Star:
			proj = append(proj, rt.Expr.String()+".*")
		default:
			proj = append(proj, rt.Expr.String())
		}
	}
	ops = append(ops, map[string]any{"#operator": "InitialProject", "result_terms": proj})
	if p.Distinct {
		ops = append(ops, map[string]any{"#operator": "Distinct"})
	}
	if len(p.OrderBy) > 0 && !p.OrderFromIndex {
		var terms []string
		for _, ot := range p.OrderBy {
			s := ot.Expr.String()
			if ot.Desc {
				s += " DESC"
			}
			terms = append(terms, s)
		}
		ops = append(ops, map[string]any{"#operator": "Sort", "terms": terms})
	}
	if p.Offset != nil {
		ops = append(ops, map[string]any{"#operator": "Offset", "expr": p.Offset.String()})
	}
	if p.Limit != nil {
		ops = append(ops, map[string]any{"#operator": "Limit", "expr": p.Limit.String()})
	}
	ops = append(ops, map[string]any{"#operator": "FinalProject"})
	return map[string]any{"#operator": "Sequence", "operators": ops, "keyspace": p.Keyspace}
}

// PlanError wraps planning failures with the offending statement part.
type PlanError struct {
	Part string
	Err  error
}

func (e *PlanError) Error() string { return fmt.Sprintf("planner: %s: %v", e.Part, e.Err) }
func (e *PlanError) Unwrap() error { return e.Err }
