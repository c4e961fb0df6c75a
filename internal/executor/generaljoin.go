package executor

import (
	"fmt"

	"couchgo/internal/n1ql"
	"couchgo/internal/planner"
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
func (ex *selectExec) joinMatcher(j planner.Join) (func([]any) ([]ScannedDoc, error), error) {
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
	return ex.nestedLoopMatcher(j, inner), nil
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
func (ex *selectExec) hashMatcher(j planner.Join, inner []ScannedDoc, outerExpr, innerExpr n1ql.Expr) (func([]any) ([]ScannedDoc, error), error) {
	table := make(map[string][]ScannedDoc, len(inner))
	build := ex.blank() // innerExpr reads nothing but the inner alias
	for i, d := range inner {
		build[j.Slot], build[j.MetaSlot] = d.Doc, &inner[i].Meta
		k, err := n1ql.Eval(innerExpr, ex.at(build))
		if err != nil {
			return nil, err
		}
		if value.IsMissing(k) || k == nil {
			continue // NULL/MISSING never equi-join
		}
		ek := string(value.EncodeKey(k))
		table[ek] = append(table[ek], d)
	}
	return func(slots []any) ([]ScannedDoc, error) {
		k, err := n1ql.Eval(outerExpr, ex.at(slots))
		if err != nil || value.IsMissing(k) || k == nil {
			return nil, err
		}
		return table[string(value.EncodeKey(k))], nil
	}, nil
}

// nestedLoopMatcher evaluates the condition for every (outer, inner)
// pair, over a copy of the outer row that takes each candidate in turn.
func (ex *selectExec) nestedLoopMatcher(j planner.Join, inner []ScannedDoc) func([]any) ([]ScannedDoc, error) {
	pair := ex.arena.slots.take(ex.width)
	return func(slots []any) ([]ScannedDoc, error) {
		copy(pair, slots)
		var matches []ScannedDoc
		for i, d := range inner {
			pair[j.Slot], pair[j.MetaSlot] = d.Doc, &inner[i].Meta
			v, err := n1ql.Eval(j.OnCond, ex.at(pair))
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
func (ex *selectExec) appendJoinRows(out [][]any, r []any, j planner.Join, matches []ScannedDoc) [][]any {
	switch {
	case len(matches) == 0:
		if j.Kind == n1ql.JoinLeftOuter {
			r[j.Slot] = value.Missing
			out = append(out, r)
		}
	case j.Nest:
		docs := make([]any, len(matches))
		for i, d := range matches {
			docs[i] = d.Doc
		}
		r[j.Slot] = docs
		out = append(out, r)
	default:
		out = ex.fan(out, r, len(matches))
		for i := range matches {
			slots := out[len(out)-len(matches)+i]
			slots[j.Slot], slots[j.MetaSlot] = matches[i].Doc, &matches[i].Meta
		}
	}
	return out
}
