package planner

import (
	"errors"
	"fmt"
	"strings"

	"couchgo/internal/n1ql"
)

// ErrNoUsableIndex is returned when a query needs a scan but the
// keyspace has neither a qualifying secondary index nor a primary
// index — the real system's "no index available" planning error.
var ErrNoUsableIndex = errors.New("planner: no index available on keyspace (create a primary or secondary index)")

// ErrNoSuchKeyspace rejects queries over unknown buckets.
var ErrNoSuchKeyspace = errors.New("planner: keyspace not found")

// PlanSelect builds the execution plan for a SELECT. sel is read, never
// changed: a cached statement is planned again when the catalog moves.
func PlanSelect(sel *n1ql.Select, cat Catalog) (*SelectPlan, error) {
	p := &SelectPlan{
		Keyspace: sel.Keyspace,
		Alias:    sel.Alias,
		Scope:    n1ql.NewScope(sel.Alias),
		Raw:      sel.Raw,
		Distinct: sel.Distinct,
		CoverID:  -1,
	}
	aggs, err := collectAggregates(sel)
	if err != nil {
		return nil, err
	}
	// A FROM-less SELECT has no access path: a single empty row flows
	// through the pipeline (SELECT 1+1).
	var cover *candidate
	switch {
	case sel.Keyspace == "":
	case !cat.KeyspaceExists(sel.Keyspace):
		return nil, fmt.Errorf("%w: %s", ErrNoSuchKeyspace, sel.Keyspace)
	case sel.UseKeys != nil:
		// Access path 1 (§4.5.3 Keyscan): USE KEYS.
		p.Scan = &KeyScan{Keys: p.Scope.Resolve(sel.UseKeys)}
		p.Fetch = true
	default:
		// Access paths 2 and 3: qualifying IndexScan, else PrimaryScan.
		best := chooseIndex(cat.Indexes(sel.Keyspace), n1ql.ConjunctsOf(sel.Where), sel)
		if best == nil {
			return nil, fmt.Errorf("%w: %s", ErrNoUsableIndex, sel.Keyspace)
		}
		p.Scan, p.Fetch, p.OrderFromIndex = best.scan, !best.covering, best.orderFromIndex
		if best.covering {
			cover = best
		}
	}
	p.resolve(sel, aggs, cover)
	return p, nil
}

// resolve binds the statement's names in pipeline order and resolves
// each clause once the names it may see are bound: an expression that
// runs before a name is bound reads it, as it always has, as a field
// of the FROM document. Under a covering index, sub-expressions the
// index holds first become references to the scan's cover slots
// (§5.1.2).
func (p *SelectPlan) resolve(sel *n1ql.Select, aggs []*n1ql.FuncCall, cover *candidate) {
	sc := p.Scope
	rw := sc.Resolve
	if cover != nil {
		for i := range cover.info.SecCanonical {
			p.Cover = append(p.Cover, sc.Bind(fmt.Sprintf("$cover:%d", i)))
		}
		rw = func(e n1ql.Expr) n1ql.Expr {
			return sc.Resolve(cover.overIndex(e, func(key int) n1ql.Expr {
				if key < 0 {
					p.CoverID = sc.Bind("$cover:id")
					return &n1ql.Ident{Name: "$cover:id"}
				}
				return &n1ql.Ident{Name: fmt.Sprintf("$cover:%d", key)}
			}))
		}
	}
	if sel.Keyspace != "" {
		p.Stars = []Binding{{sel.Alias, n1ql.DocSlot}}
	}
	// Constant for one execution: evaluated over a row of MISSING.
	p.Limit, p.Offset = sc.Resolve(sel.Limit), sc.Resolve(sel.Offset)
	switch scan := p.Scan.(type) {
	case *IndexScan:
		scan.Span = scan.Span.resolved(sc)
	case *PrimaryScan:
		scan.Span = scan.Span.resolved(sc)
	}
	for _, j := range sel.Joins {
		j.OnKeys = rw(j.OnKeys)
		slot, meta := sc.Bind(j.Alias), sc.BindMeta(j.Alias)
		j.OnCond = rw(j.OnCond)
		p.Joins = append(p.Joins, Join{j, slot, meta})
		p.Stars = append(p.Stars, Binding{j.Alias, slot})
	}
	for _, u := range sel.Unnests {
		u.Expr = rw(u.Expr)
		slot := sc.Bind(u.Alias)
		p.Unnests = append(p.Unnests, Unnest{u, slot})
		p.Stars = append(p.Stars, Binding{u.Alias, slot})
	}
	p.Where = rw(sel.Where)
	for _, g := range sel.GroupBy {
		p.GroupBy = append(p.GroupBy, rw(g))
	}
	for _, fc := range aggs {
		if r, ok := rw(fc).(*n1ql.FuncCall); ok {
			fc = r
		}
		p.Aggregates = append(p.Aggregates, Aggregate{FuncCall: fc})
	}
	// From here on an aggregate call reads its group's result.
	for i := range p.Aggregates {
		p.Aggregates[i].Slot = sc.BindAggregate(p.Aggregates[i].FuncCall)
	}
	p.Having = rw(sel.Having)
	p.Projection = resolveTerms(sel.Projection, rw)
	for _, ot := range sel.OrderBy {
		ot.Expr = rw(ot.Expr)
		p.OrderBy = append(p.OrderBy, ot)
	}
}

// resolveTerms settles projection (or RETURNING) terms: each keeps its
// result name in Alias — explicit, else the trailing path component,
// else $<position> (1-based) — and has its expression resolved by rw.
func resolveTerms(terms []n1ql.ResultTerm, rw func(n1ql.Expr) n1ql.Expr) []n1ql.ResultTerm {
	out := make([]n1ql.ResultTerm, len(terms))
	for i, rt := range terms {
		if rt.Alias == "" && !rt.Star {
			switch t := rt.Expr.(type) {
			case *n1ql.Ident:
				rt.Alias = t.Name
			case *n1ql.Field:
				rt.Alias = t.Name
			default:
				rt.Alias = fmt.Sprintf("$%d", i+1)
			}
		}
		rt.Expr = rw(rt.Expr)
		out[i] = rt
	}
	return out
}

// MutationPlan is an UPDATE or DELETE: the SELECT * that finds its
// targets, so the statement's LIMIT stops the scan as it does a
// query's, and the statement's own clauses resolved in that SELECT's
// scope.
type MutationPlan struct {
	Targets   *SelectPlan
	Sets      []n1ql.SetClause
	Unsets    []n1ql.Expr
	Returning []n1ql.ResultTerm
}

// PlanMutation plans an *n1ql.Update or *n1ql.Delete.
func PlanMutation(stmt n1ql.Statement, cat Catalog) (*MutationPlan, error) {
	var upd n1ql.Update // a DELETE plans as an UPDATE that sets nothing
	switch t := stmt.(type) {
	case *n1ql.Update:
		upd = *t
	case *n1ql.Delete:
		upd = n1ql.Update{Keyspace: t.Keyspace, Alias: t.Alias, UseKeys: t.UseKeys, Where: t.Where, Limit: t.Limit, Returning: t.Returning}
	default:
		return nil, fmt.Errorf("planner: %T is not an UPDATE or DELETE", stmt)
	}
	p, err := PlanSelect(&n1ql.Select{
		Keyspace: upd.Keyspace, Alias: upd.Alias, UseKeys: upd.UseKeys, Where: upd.Where, Limit: upd.Limit,
		Projection: []n1ql.ResultTerm{{Star: true}}, // force document fetch
	}, cat)
	if err != nil {
		return nil, err
	}
	mp := &MutationPlan{Targets: p, Unsets: p.Scope.ResolveAll(upd.Unsets), Returning: resolveTerms(upd.Returning, p.Scope.Resolve)}
	for _, sc := range upd.Sets {
		mp.Sets = append(mp.Sets, n1ql.SetClause{Path: p.Scope.Resolve(sc.Path), Val: p.Scope.Resolve(sc.Val)})
	}
	return mp, nil
}

// InsertPlan is an INSERT/UPSERT with its expressions resolved: the
// VALUES pairs over a row of MISSING, RETURNING over the new document.
type InsertPlan struct {
	n1ql.Insert
	Scope *n1ql.Scope
}

// PlanInsert plans an INSERT.
func PlanInsert(ins *n1ql.Insert, cat Catalog) (*InsertPlan, error) {
	if !cat.KeyspaceExists(ins.Keyspace) {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchKeyspace, ins.Keyspace)
	}
	p := &InsertPlan{Insert: *ins, Scope: n1ql.NewScope(ins.Keyspace)}
	p.KeyExprs, p.ValExprs = p.Scope.ResolveAll(ins.KeyExprs), p.Scope.ResolveAll(ins.ValExprs)
	p.Returning = resolveTerms(ins.Returning, p.Scope.Resolve)
	return p, nil
}

// candidate scores one possible access path.
type candidate struct {
	info           IndexInfo
	scan           Scan
	span           Span
	eqKeys         int // number of leading equality keys
	hasRange       bool
	covering       bool
	orderFromIndex bool
	alias          string
}

// chooseIndex picks the best access path: most leading equality keys,
// then a range beats none, then covering beats fetching, with the
// primary index as the fallback of last resort.
func chooseIndex(indexes []IndexInfo, conjuncts []n1ql.Expr, sel *n1ql.Select) *candidate {
	var best *candidate
	var primary *IndexInfo
	for i := range indexes {
		info := indexes[i]
		if !info.Built {
			continue
		}
		if info.IsPrimary && primary == nil {
			primary = &indexes[i]
		}
		c := sargIndex(info, conjuncts, sel)
		if c == nil {
			continue
		}
		if best == nil || betterCandidate(c, best) {
			best = c
		}
	}
	if best != nil {
		return best
	}
	if primary != nil {
		// PrimaryScan; meta().id predicates still restrict the span.
		c := sargIndex(*primary, conjuncts, sel)
		if c == nil {
			c = &candidate{info: *primary, span: Span{}, alias: sel.Alias}
		}
		return &candidate{
			info:           c.info,
			scan:           &PrimaryScan{Index: primary.Name, Using: primary.Using, Span: c.span},
			span:           c.span,
			covering:       c.covering,
			orderFromIndex: c.orderFromIndex,
			alias:          sel.Alias,
		}
	}
	return nil
}

func betterCandidate(a, b *candidate) bool {
	if a.eqKeys != b.eqKeys {
		return a.eqKeys > b.eqKeys
	}
	if a.hasRange != b.hasRange {
		return a.hasRange
	}
	if a.covering != b.covering {
		return a.covering
	}
	// Prefer secondary over primary when otherwise equal.
	if a.info.IsPrimary != b.info.IsPrimary {
		return !a.info.IsPrimary
	}
	return false
}

// sargIndex determines whether the index qualifies for the query and
// builds its scan span ("sargable": search-argument-able).
func sargIndex(info IndexInfo, conjuncts []n1ql.Expr, sel *n1ql.Select) *candidate {
	alias := sel.Alias
	// A partial index applies only when its predicate appears verbatim
	// among the query's conjuncts (simple but sound implication).
	if info.WhereCanonical != "" {
		found := false
		for _, cj := range conjuncts {
			if canonicalOf(cj, alias) == info.WhereCanonical {
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	if len(info.SecCanonical) == 0 {
		return nil
	}

	// Match conjuncts against the leading index keys, position by
	// position: equalities extend the prefix; the first range stops it.
	c := &candidate{info: info, alias: alias}
	var equals []n1ql.Expr
	pos := 0
	for ; pos < len(info.SecCanonical); pos++ {
		keyCanon := info.SecCanonical[pos]
		eq, lo, hi, loIncl, hiIncl := matchKey(keyCanon, conjuncts, alias, info.IsArray && pos == 0)
		if eq != nil {
			equals = append(equals, eq)
			continue
		}
		if lo != nil || hi != nil {
			c.hasRange = true
			c.span = Span{Low: nil, High: nil}
			if len(equals) > 0 {
				// Equality prefix + range on the next key.
				if lo != nil {
					c.span.Low = append(append([]n1ql.Expr{}, equals...), lo)
					c.span.LowIncl = loIncl
				} else {
					c.span.Low = append([]n1ql.Expr{}, equals...)
					c.span.LowIncl = true
				}
				if hi != nil {
					c.span.High = append(append([]n1ql.Expr{}, equals...), hi)
					c.span.HighIncl = hiIncl
				} else {
					c.span.High = append([]n1ql.Expr{}, equals...)
					c.span.HighIncl = true
				}
			} else {
				if lo != nil {
					c.span.Low = []n1ql.Expr{lo}
					c.span.LowIncl = loIncl
				}
				if hi != nil {
					c.span.High = []n1ql.Expr{hi}
					c.span.HighIncl = hiIncl
				}
			}
			break
		}
		break
	}
	c.eqKeys = len(equals)
	if len(equals) == len(info.SecCanonical) && len(equals) > 0 {
		c.span = Span{Equal: equals}
	} else if len(equals) > 0 && !c.hasRange {
		// Equality on a leading prefix only: scan that prefix range.
		c.span = Span{Low: equals, High: equals, LowIncl: true, HighIncl: true}
		c.hasRange = true
	}
	if c.eqKeys == 0 && !c.hasRange && !info.IsPrimary {
		// The index doesn't filter anything. It can still win as a
		// covering full-index scan; otherwise reject.
		if !tryCovering(c, sel) {
			return nil
		}
		c.scan = &IndexScan{Index: info.Name, Using: info.Using, Span: c.span, Covering: true}
		c.orderFromIndex = orderMatchesIndex(sel, info)
		return c
	}
	tryCovering(c, sel)
	c.orderFromIndex = orderMatchesIndex(sel, info)
	if info.IsPrimary {
		c.scan = &PrimaryScan{Index: info.Name, Using: info.Using, Span: c.span}
	} else {
		c.scan = &IndexScan{Index: info.Name, Using: info.Using, Span: c.span, Covering: c.covering}
	}
	return c
}

func canonicalOf(e n1ql.Expr, alias string) string {
	return n1ql.Formalize(e, alias).String()
}

// matchKey scans the conjuncts for predicates sargable on one index
// key, returning an equality expression or range bounds.
func matchKey(keyCanon string, conjuncts []n1ql.Expr, alias string, arrayKey bool) (eq, lo, hi n1ql.Expr, loIncl, hiIncl bool) {
	for _, cj := range conjuncts {
		if arrayKey {
			if e := matchArrayPredicate(keyCanon, cj, alias); e != nil {
				return e, nil, nil, false, false
			}
			continue
		}
		switch t := cj.(type) {
		case *n1ql.Binary:
			keySide, constSide, op, ok := orientBinary(t, keyCanon, alias)
			if !ok {
				continue
			}
			_ = keySide
			switch op {
			case n1ql.OpEq:
				return constSide, nil, nil, false, false
			case n1ql.OpGt:
				if lo == nil {
					lo, loIncl = constSide, false
				}
			case n1ql.OpGe:
				if lo == nil {
					lo, loIncl = constSide, true
				}
			case n1ql.OpLt:
				if hi == nil {
					hi, hiIncl = constSide, false
				}
			case n1ql.OpLe:
				if hi == nil {
					hi, hiIncl = constSide, true
				}
			}
		case *n1ql.Between:
			if t.Not {
				continue
			}
			if canonicalOf(t.Operand, alias) == keyCanon && n1ql.IsConstant(t.Lo) && n1ql.IsConstant(t.Hi) {
				if lo == nil {
					lo, loIncl = t.Lo, true
				}
				if hi == nil {
					hi, hiIncl = t.Hi, true
				}
			}
		}
	}
	return nil, lo, hi, loIncl, hiIncl
}

// orientBinary normalizes `key op const` / `const op key` comparisons.
func orientBinary(b *n1ql.Binary, keyCanon, alias string) (keySide, constSide n1ql.Expr, op n1ql.BinOp, ok bool) {
	flip := map[n1ql.BinOp]n1ql.BinOp{
		n1ql.OpEq: n1ql.OpEq, n1ql.OpLt: n1ql.OpGt, n1ql.OpLe: n1ql.OpGe,
		n1ql.OpGt: n1ql.OpLt, n1ql.OpGe: n1ql.OpLe,
	}
	if _, known := flip[b.Op]; !known {
		return nil, nil, 0, false
	}
	if canonicalOf(b.LHS, alias) == keyCanon && n1ql.IsConstant(b.RHS) {
		return b.LHS, b.RHS, b.Op, true
	}
	if canonicalOf(b.RHS, alias) == keyCanon && n1ql.IsConstant(b.LHS) {
		return b.RHS, b.LHS, flip[b.Op], true
	}
	return nil, nil, 0, false
}

// matchArrayPredicate matches `ANY v IN coll SATISFIES v = const END`
// against an array index whose key is `ARRAY v FOR v IN coll END`
// (§6.1.2).
func matchArrayPredicate(keyCanon string, cj n1ql.Expr, alias string) n1ql.Expr {
	cp, ok := cj.(*n1ql.CollPredicate)
	if !ok || cp.Kind != n1ql.CollAny {
		return nil
	}
	sat, ok := cp.Satisfies.(*n1ql.Binary)
	if !ok || sat.Op != n1ql.OpEq {
		return nil
	}
	var elemConst n1ql.Expr
	if id, isIdent := sat.LHS.(*n1ql.Ident); isIdent && id.Name == cp.Var && n1ql.IsConstant(sat.RHS) {
		elemConst = sat.RHS
	} else if id, isIdent := sat.RHS.(*n1ql.Ident); isIdent && id.Name == cp.Var && n1ql.IsConstant(sat.LHS) {
		elemConst = sat.LHS
	}
	if elemConst == nil {
		return nil
	}
	// The predicate's comprehension form must match the index key:
	// ARRAY <var> FOR <var> IN <coll> END.
	equivalent := &n1ql.ArrayComprehension{
		Mapper: &n1ql.Ident{Name: cp.Var},
		Var:    cp.Var,
		Coll:   cp.Coll,
	}
	if canonicalOf(equivalent, alias) != normalizeArrayVar(keyCanon, cp.Var) {
		return nil
	}
	return elemConst
}

// normalizeArrayVar rewrites the index key's bound variable name to the
// predicate's so the canonical comparison is alpha-insensitive.
func normalizeArrayVar(keyCanon, wantVar string) string {
	// keyCanon looks like "ARRAY x FOR x IN self.field END".
	const prefix = "ARRAY "
	if !strings.HasPrefix(keyCanon, prefix) {
		return keyCanon
	}
	rest := keyCanon[len(prefix):]
	sp := strings.Index(rest, " FOR ")
	if sp < 0 {
		return keyCanon
	}
	mapper := rest[:sp]
	rest2 := rest[sp+len(" FOR "):]
	sp2 := strings.Index(rest2, " IN ")
	if sp2 < 0 {
		return keyCanon
	}
	v := rest2[:sp2]
	if mapper != v {
		return keyCanon // only plain element indexes normalize
	}
	tail := rest2[sp2:]
	return prefix + wantVar + " FOR " + wantVar + tail
}

// orderMatchesIndex reports whether ORDER BY is exactly an ascending
// prefix of the index keys (index order can replace the Sort).
func orderMatchesIndex(sel *n1ql.Select, info IndexInfo) bool {
	if len(sel.OrderBy) == 0 || len(sel.OrderBy) > len(info.SecCanonical) {
		return false
	}
	for i, ot := range sel.OrderBy {
		if ot.Desc {
			return false
		}
		if canonicalOf(ot.Expr, sel.Alias) != info.SecCanonical[i] {
			return false
		}
	}
	// Joins/unnests multiply rows unpredictably; keep the Sort then.
	return len(sel.Joins) == 0 && len(sel.Unnests) == 0
}

// tryCovering checks §5.1.2: "a covering index includes all of the
// information needed to satisfy the query". On success it fills the
// candidate's cover bindings.
func tryCovering(c *candidate, sel *n1ql.Select) bool {
	if c.info.IsArray {
		return false // array index entries don't reconstruct the array
	}
	if len(sel.Joins) > 0 {
		return false // joined keyspaces need fetched documents
	}
	// Every expression the query evaluates must be derivable: with what
	// the index entry holds taken as given, nothing may still read the
	// document.
	for _, e := range collectQueryExprs(sel) {
		if !n1ql.IsConstant(c.overIndex(e, func(int) n1ql.Expr { return &n1ql.Literal{} })) {
			return false
		}
	}
	c.covering = true
	return true
}

// overIndex copies e with every sub-expression the index entry holds,
// key i or the document ID (-1), replaced by with's answer for it. It
// does not look inside an ANY/EVERY/ARRAY, whose variable may shadow an
// indexed field: one that is no key itself keeps reading the document.
func (c *candidate) overIndex(e n1ql.Expr, with func(key int) n1ql.Expr) n1ql.Expr {
	return n1ql.MapExpr(e, func(x n1ql.Expr) n1ql.Expr {
		canon := canonicalOf(x, c.alias)
		for i := len(c.info.SecCanonical) - 1; i >= 0; i-- {
			if c.info.SecCanonical[i] == canon {
				return with(i)
			}
		}
		switch x.(type) {
		case *n1ql.CollPredicate, *n1ql.ArrayComprehension:
			return x
		}
		if canon == "meta().id" {
			return with(-1)
		}
		return nil
	})
}

func collectQueryExprs(sel *n1ql.Select) []n1ql.Expr {
	var out []n1ql.Expr
	for _, rt := range sel.Projection {
		if rt.Star {
			// SELECT * needs the whole document.
			out = append(out, &n1ql.Self{})
			continue
		}
		out = append(out, rt.Expr)
	}
	if sel.Where != nil {
		out = append(out, sel.Where)
	}
	for _, g := range sel.GroupBy {
		out = append(out, g)
	}
	if sel.Having != nil {
		out = append(out, sel.Having)
	}
	for _, ot := range sel.OrderBy {
		out = append(out, ot.Expr)
	}
	for _, u := range sel.Unnests {
		out = append(out, u.Expr)
	}
	return out
}

// collectAggregates finds aggregate calls in projection/having/order
// and validates aggregate placement.
func collectAggregates(sel *n1ql.Select) ([]*n1ql.FuncCall, error) {
	seen := map[string]*n1ql.FuncCall{}
	var order []*n1ql.FuncCall
	collect := func(e n1ql.Expr) {
		n1ql.WalkExpr(e, func(x n1ql.Expr) bool {
			if fc, ok := x.(*n1ql.FuncCall); ok && n1ql.IsAggregate(fc.Name) {
				if _, dup := seen[fc.String()]; !dup {
					seen[fc.String()] = fc
					order = append(order, fc)
				}
				return false
			}
			return true
		})
	}
	for _, rt := range sel.Projection {
		if !rt.Star {
			collect(rt.Expr)
		}
	}
	collect(sel.Having)
	for _, ot := range sel.OrderBy {
		collect(ot.Expr)
	}
	if sel.Where != nil && n1ql.HasAggregate(sel.Where) {
		return nil, &PlanError{Part: "WHERE", Err: errors.New("aggregates are not allowed in WHERE")}
	}
	return order, nil
}
