package executor

import (
	"fmt"

	"couchgo/internal/n1ql"
	"couchgo/internal/value"
)

// General (non-key) join execution. N1QL proper forbids these
// (§3.2.4); the analytics service (§6.2 — "richer (and more expensive)
// queries such as large joins") provides a datastore that implements
// KeyspaceScanner, unlocking this path. The implementation is the
// "parallel database inspired" classic: a hash join when the condition
// has an extractable equi-join key, falling back to a nested-loop
// cross product with a filter otherwise.

// ScannedDoc is one document from a full keyspace scan.
type ScannedDoc struct {
	ID   string
	Doc  any
	Meta n1ql.Meta
}

// KeyspaceScanner is the optional Datastore extension general joins
// require: iterate every document of a keyspace. Only the analytics
// shadow store implements it — the operational data service
// deliberately does not, which is how the §3.2.4 restriction stays
// enforced at execution depth too.
type KeyspaceScanner interface {
	ScanKeyspace(keyspace string) ([]ScannedDoc, error)
}

// joinMatcher settles how one join term finds an outer row's inner
// matches. A general join reads the inner keyspace here, once, however
// many batches of outer rows follow.
func (ex *selectExec) joinMatcher(j n1ql.JoinTerm) (func(row) ([]ScannedDoc, error), error) {
	if j.OnCond == nil {
		return ex.keyMatches(j), nil
	}
	scanner, ok := ex.ds.(KeyspaceScanner)
	if !ok {
		return nil, fmt.Errorf("executor: general joins require the analytics service (N1QL §3.2.4 allows only ON KEYS joins)")
	}
	inner, err := scanner.ScanKeyspace(j.Keyspace)
	if err != nil {
		return nil, err
	}
	if outerExpr, innerExpr := equiJoinKeys(j.OnCond, j.Alias); outerExpr != nil {
		return ex.hashMatcher(j, inner, outerExpr, innerExpr)
	}
	return nestedLoopMatcher(j, inner), nil
}

// equiJoinKeys detects `outerSide = innerSide` conditions where one
// side references only the inner alias and the other does not touch it
// at all — the hash-join opportunity.
func equiJoinKeys(cond n1ql.Expr, innerAlias string) (outerExpr, innerExpr n1ql.Expr) {
	b, ok := cond.(*n1ql.Binary)
	if !ok || b.Op != n1ql.OpEq {
		return nil, nil
	}
	lInner := referencesAlias(b.LHS, innerAlias)
	rInner := referencesAlias(b.RHS, innerAlias)
	switch {
	case rInner && !lInner && onlyAlias(b.RHS, innerAlias):
		return b.LHS, b.RHS
	case lInner && !rInner && onlyAlias(b.LHS, innerAlias):
		return b.RHS, b.LHS
	}
	return nil, nil
}

// referencesAlias reports whether e mentions alias (as a binding root).
func referencesAlias(e n1ql.Expr, alias string) bool {
	found := false
	n1ql.WalkExpr(e, func(x n1ql.Expr) bool {
		if id, ok := x.(*n1ql.Ident); ok && id.Name == alias {
			found = true
			return false
		}
		if m, ok := x.(*n1ql.MetaExpr); ok && m.Alias == alias {
			found = true
			return false
		}
		return true
	})
	return found
}

// onlyAlias reports whether every data reference in e is rooted at
// alias: the expression can be evaluated against an inner document
// alone. Bare identifiers that are not the alias would resolve against
// the outer default binding, so they disqualify.
func onlyAlias(e n1ql.Expr, alias string) bool {
	ok := true
	n1ql.WalkExpr(e, func(x n1ql.Expr) bool {
		switch t := x.(type) {
		case *n1ql.Ident:
			if t.Name != alias {
				ok = false
			}
			return false
		case *n1ql.Self:
			ok = false
			return false
		case *n1ql.MetaExpr:
			if t.Alias != alias {
				ok = false
			}
			return false
		case *n1ql.Field:
			// Descend only into the receiver; the field name itself is
			// not a reference.
			n1ql.WalkExpr(t.Recv, func(y n1ql.Expr) bool { return walkRef(y, alias, &ok) })
			return false
		}
		return true
	})
	return ok
}

func walkRef(x n1ql.Expr, alias string, ok *bool) bool {
	switch t := x.(type) {
	case *n1ql.Ident:
		if t.Name != alias {
			*ok = false
		}
		return false
	case *n1ql.Self:
		*ok = false
		return false
	case *n1ql.MetaExpr:
		if t.Alias != alias {
			*ok = false
		}
		return false
	}
	return true
}

// hashMatcher builds a hash table on the inner side's join key; the
// matcher probes it with each outer row.
func (ex *selectExec) hashMatcher(j n1ql.JoinTerm, inner []ScannedDoc, outerExpr, innerExpr n1ql.Expr) (func(row) ([]ScannedDoc, error), error) {
	table := make(map[string][]ScannedDoc, len(inner))
	for _, d := range inner {
		ctx := &n1ql.Context{
			Bindings: map[string]any{j.Alias: d.Doc},
			Metas:    map[string]n1ql.Meta{j.Alias: d.Meta},
			Params:   ex.opts.Params,
			Default:  j.Alias,
		}
		k, err := n1ql.Eval(innerExpr, ctx)
		if err != nil {
			return nil, err
		}
		if value.IsMissing(k) || k == nil {
			continue // NULL/MISSING never equi-join
		}
		ek := string(value.EncodeKey(k))
		table[ek] = append(table[ek], d)
	}
	return func(r row) ([]ScannedDoc, error) {
		k, err := n1ql.Eval(outerExpr, r.ctx)
		if err != nil || value.IsMissing(k) || k == nil {
			return nil, err
		}
		return table[string(value.EncodeKey(k))], nil
	}, nil
}

// nestedLoopMatcher evaluates the condition for every (outer, inner)
// pair.
func nestedLoopMatcher(j n1ql.JoinTerm, inner []ScannedDoc) func(row) ([]ScannedDoc, error) {
	return func(r row) ([]ScannedDoc, error) {
		var matches []ScannedDoc
		for _, d := range inner {
			ctx := r.ctx.Child(j.Alias, d.Doc)
			ctx.Metas = withMeta(r.ctx.Metas, j.Alias, d.Meta)
			v, err := n1ql.Eval(j.OnCond, ctx)
			if err != nil {
				return nil, err
			}
			if value.Truthy(v) {
				matches = append(matches, d)
			}
		}
		return matches, nil
	}
}

// appendJoinRows emits one outer row's results per the JOIN/NEST and
// INNER/LEFT semantics, shared by key and general joins. NEST: "it
// produces a single result for each left-hand input while its
// right-hand input is collected into an array and nested". JOIN: one
// result per matched inner document.
func appendJoinRows(out []row, r row, j n1ql.JoinTerm, matches []ScannedDoc) []row {
	if len(matches) == 0 {
		if j.Kind == n1ql.JoinLeftOuter {
			nr := r
			nr.ctx = r.ctx.Child(j.Alias, value.Missing)
			out = append(out, nr)
		}
		return out
	}
	if j.Nest {
		docs := make([]any, len(matches))
		for i, d := range matches {
			docs[i] = d.Doc
		}
		nr := r
		nr.ctx = r.ctx.Child(j.Alias, docs)
		return append(out, nr)
	}
	for _, d := range matches {
		nr := r
		nr.ctx = r.ctx.Child(j.Alias, d.Doc)
		nr.ctx.Metas = withMeta(r.ctx.Metas, j.Alias, d.Meta)
		out = append(out, nr)
	}
	return out
}
