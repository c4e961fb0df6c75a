package executor

import (
	"fmt"

	"couchgo/internal/n1ql"
	"couchgo/internal/planner"
	"couchgo/internal/value"
)

// MutationResult reports a DML statement's effect.
type MutationResult struct {
	MutationCount int
	Returning     []any
}

// ExecuteInsert runs INSERT/UPSERT INTO ... (KEY, VALUE) VALUES ...
func ExecuteInsert(ins *n1ql.Insert, ds Datastore, cat planner.Catalog, opts Options) (*MutationResult, error) {
	if !cat.KeyspaceExists(ins.Keyspace) {
		return nil, fmt.Errorf("%w: %s", planner.ErrNoSuchKeyspace, ins.Keyspace)
	}
	res := &MutationResult{}
	pctx := &n1ql.Context{Params: opts.Params}
	for i := range ins.KeyExprs {
		kv, err := n1ql.Eval(ins.KeyExprs[i], pctx)
		if err != nil {
			return nil, err
		}
		key, ok := kv.(string)
		if !ok {
			return nil, fmt.Errorf("executor: INSERT key must be a string, got %s", value.KindOf(kv))
		}
		doc, err := n1ql.Eval(ins.ValExprs[i], pctx)
		if err != nil {
			return nil, err
		}
		if err := ds.InsertDoc(opts.Context(), ins.Keyspace, key, doc, ins.Upsert); err != nil {
			return nil, err
		}
		res.MutationCount++
		if len(ins.Returning) > 0 {
			ctx := n1ql.NewContext(ins.Keyspace, doc, n1ql.Meta{ID: key})
			ctx.Params = opts.Params
			out, err := projectTerms(ins.Returning, ctx)
			if err != nil {
				return nil, err
			}
			res.Returning = append(res.Returning, out)
		}
	}
	return res, nil
}

// mutationTargets finds the documents a DELETE/UPDATE affects by
// running them as a SELECT * through the pipeline, so the statement's
// LIMIT stops the scan as it does a query's.
func mutationTargets(keyspace, alias string, useKeys, where, limit n1ql.Expr, ds Datastore, cat planner.Catalog, opts Options) ([]row, error) {
	sel := &n1ql.Select{
		Keyspace:   keyspace,
		Alias:      alias,
		UseKeys:    useKeys,
		Where:      where,
		Limit:      limit,
		Projection: []n1ql.ResultTerm{{Star: true}}, // force document fetch
	}
	p, err := planner.PlanSelect(sel, cat)
	if err != nil {
		return nil, err
	}
	return (&selectExec{p: p, ds: ds, opts: opts}).run()
}

// ExecuteDelete runs DELETE FROM ...
func ExecuteDelete(del *n1ql.Delete, ds Datastore, cat planner.Catalog, opts Options) (*MutationResult, error) {
	rows, err := mutationTargets(del.Keyspace, del.Alias, del.UseKeys, del.Where, del.Limit, ds, cat, opts)
	if err != nil {
		return nil, err
	}
	res := &MutationResult{}
	for _, r := range rows {
		id := r.ctx.Metas[del.Alias].ID
		if err := ds.DeleteDoc(opts.Context(), del.Keyspace, id); err != nil {
			continue // concurrently deleted
		}
		res.MutationCount++
		if len(del.Returning) > 0 {
			out, err := projectTerms(del.Returning, r.ctx)
			if err != nil {
				return nil, err
			}
			res.Returning = append(res.Returning, out)
		}
	}
	return res, nil
}

// ExecuteUpdate runs UPDATE ... SET/UNSET.
func ExecuteUpdate(upd *n1ql.Update, ds Datastore, cat planner.Catalog, opts Options) (*MutationResult, error) {
	rows, err := mutationTargets(upd.Keyspace, upd.Alias, upd.UseKeys, upd.Where, upd.Limit, ds, cat, opts)
	if err != nil {
		return nil, err
	}
	res := &MutationResult{}
	for _, r := range rows {
		id := r.ctx.Metas[upd.Alias].ID
		doc := value.Copy(r.ctx.Bindings[upd.Alias])
		for _, sc := range upd.Sets {
			nv, err := n1ql.Eval(sc.Val, r.ctx)
			if err != nil {
				return nil, err
			}
			doc, err = applyPathSet(doc, sc.Path, upd.Alias, nv, r.ctx)
			if err != nil {
				return nil, err
			}
		}
		for _, un := range upd.Unsets {
			doc, err = applyPathUnset(doc, un, upd.Alias, r.ctx)
			if err != nil {
				return nil, err
			}
		}
		if err := ds.UpdateDoc(opts.Context(), upd.Keyspace, id, doc); err != nil {
			continue
		}
		res.MutationCount++
		if len(upd.Returning) > 0 {
			ctx := n1ql.NewContext(upd.Alias, doc, n1ql.Meta{ID: id})
			ctx.Params = opts.Params
			out, err := projectTerms(upd.Returning, ctx)
			if err != nil {
				return nil, err
			}
			res.Returning = append(res.Returning, out)
		}
	}
	return res, nil
}

// pathOf converts a SET/UNSET target expression (Ident/Field/Element
// chain) into a value.Path rooted at the document. The leading alias
// qualifier, when present, is stripped.
func pathOf(e n1ql.Expr, alias string, ctx *n1ql.Context) (value.Path, error) {
	var steps []string
	cur := e
	for {
		switch t := cur.(type) {
		case *n1ql.Ident:
			if t.Name != alias {
				steps = append(steps, t.Name)
			}
			goto done
		case *n1ql.Field:
			steps = append(steps, t.Name)
			cur = t.Recv
		case *n1ql.Element:
			idx, err := n1ql.Eval(t.Index, ctx)
			if err != nil {
				return value.Path{}, err
			}
			f, ok := value.AsNumber(idx)
			if !ok {
				return value.Path{}, fmt.Errorf("executor: non-numeric array index in SET path %s", e)
			}
			steps = append(steps, fmt.Sprintf("[%d]", int(f)))
			cur = t.Recv
		default:
			return value.Path{}, fmt.Errorf("executor: unsupported SET path %s", e)
		}
	}
done:
	// steps collected leaf-to-root; reverse and join.
	src := ""
	for i := len(steps) - 1; i >= 0; i-- {
		s := steps[i]
		if len(s) > 0 && s[0] == '[' {
			src += s
		} else if src == "" {
			src = s
		} else {
			src += "." + s
		}
	}
	p, ok := value.ParsePath(src)
	if !ok {
		return value.Path{}, fmt.Errorf("executor: bad SET path %q", src)
	}
	return p, nil
}

func applyPathSet(doc any, pathExpr n1ql.Expr, alias string, nv any, ctx *n1ql.Context) (any, error) {
	p, err := pathOf(pathExpr, alias, ctx)
	if err != nil {
		return nil, err
	}
	if p.Len() == 0 {
		return nil, fmt.Errorf("executor: cannot SET the document root")
	}
	out, ok := p.Set(doc, nv)
	if !ok {
		return doc, nil // non-applicable path: no-op, as in N1QL
	}
	return out, nil
}

func applyPathUnset(doc any, pathExpr n1ql.Expr, alias string, ctx *n1ql.Context) (any, error) {
	p, err := pathOf(pathExpr, alias, ctx)
	if err != nil {
		return nil, err
	}
	out, _ := p.Delete(doc)
	return out, nil
}
