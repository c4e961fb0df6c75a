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
func ExecuteInsert(ins *planner.InsertPlan, ds Datastore, opts Options) (*MutationResult, error) {
	res := &MutationResult{}
	stars := []planner.Binding{{Name: ins.Keyspace, Slot: n1ql.DocSlot}}
	pctx := ins.Scope.NewContext(value.Missing, n1ql.Meta{})
	pctx.Params = opts.Params
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
			ctx := ins.Scope.NewContext(doc, n1ql.Meta{ID: key})
			ctx.Params = opts.Params
			out, err := projectTerms(ins.Returning, stars, ctx)
			if err != nil {
				return nil, err
			}
			res.Returning = append(res.Returning, out)
		}
	}
	return res, nil
}

// mutate finds a DELETE/UPDATE's documents by running its target SELECT
// and hands each to apply, which reports whether it changed the
// document (one changed concurrently is skipped); RETURNING then reads
// the row as apply left it.
func mutate(mp *planner.MutationPlan, ds Datastore, opts Options, apply func(ctx *n1ql.Context, id string) (bool, error)) (*MutationResult, error) {
	rows, err := (&selectExec{p: mp.Targets, ds: ds, opts: opts}).run()
	if err != nil {
		return nil, err
	}
	res := &MutationResult{}
	ctx := &n1ql.Context{Params: opts.Params}
	for _, r := range rows {
		ctx.Slots = r.slots
		if ok, err := apply(ctx, r.id); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		res.MutationCount++
		if len(mp.Returning) > 0 {
			out, err := projectTerms(mp.Returning, mp.Targets.Stars, ctx)
			if err != nil {
				return nil, err
			}
			res.Returning = append(res.Returning, out)
		}
	}
	return res, nil
}

// ExecuteDelete runs DELETE FROM ...
func ExecuteDelete(mp *planner.MutationPlan, ds Datastore, opts Options) (*MutationResult, error) {
	return mutate(mp, ds, opts, func(_ *n1ql.Context, id string) (bool, error) {
		return ds.DeleteDoc(opts.Context(), mp.Targets.Keyspace, id) == nil, nil
	})
}

// ExecuteUpdate runs UPDATE ... SET/UNSET.
func ExecuteUpdate(mp *planner.MutationPlan, ds Datastore, opts Options) (*MutationResult, error) {
	alias := mp.Targets.Alias
	return mutate(mp, ds, opts, func(ctx *n1ql.Context, id string) (bool, error) {
		doc := value.Copy(ctx.Slots[n1ql.DocSlot])
		for _, sc := range mp.Sets {
			nv, err := n1ql.Eval(sc.Val, ctx)
			if err != nil {
				return false, err
			}
			if doc, err = applyPathSet(doc, sc.Path, alias, nv, ctx); err != nil {
				return false, err
			}
		}
		for _, un := range mp.Unsets {
			var err error
			if doc, err = applyPathUnset(doc, un, alias, ctx); err != nil {
				return false, err
			}
		}
		if ds.UpdateDoc(opts.Context(), mp.Targets.Keyspace, id, doc) != nil {
			return false, nil
		}
		// RETURNING sees the document as written.
		ctx.Slots[n1ql.DocSlot], ctx.Slots[n1ql.MetaSlot] = doc, &n1ql.Meta{ID: id}
		return true, nil
	})
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
