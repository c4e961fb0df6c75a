package executor

import (
	"errors"
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
	pctx.BindParams(ins.Scope, opts.Params)
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
			ctx.BindParams(ins.Scope, opts.Params)
			out, err := projectTerms(ins.Returning, stars, ctx)
			if err != nil {
				return nil, err
			}
			res.Returning = append(res.Returning, out)
		}
	}
	return res, nil
}

// maxRereads bounds how often a DML statement reads a target again
// because its CAS moved between the read and the write.
const maxRereads = 16

// mutate finds a DELETE/UPDATE's documents by running its target SELECT
// and hands each to apply, which writes it over the CAS its fetch read;
// RETURNING then reads the row as apply left it. The executor goes back
// to the pool once every target is applied.
func mutate(mp *planner.MutationPlan, ds Datastore, opts Options, apply func(ctx *n1ql.Context, meta *n1ql.Meta) error) (*MutationResult, error) {
	ex := newExec(mp.Targets, ds, opts)
	defer ex.free()
	rows, err := ex.run()
	if err != nil {
		return nil, err
	}
	res := &MutationResult{}
	for _, r := range rows {
		if ok, err := ex.write(r, apply); err != nil {
			return nil, err
		} else if !ok {
			continue
		}
		res.MutationCount++
		if len(mp.Returning) > 0 {
			out, err := projectTerms(mp.Returning, mp.Targets.Stars, ex.at(r))
			if err != nil {
				return nil, err
			}
			res.Returning = append(res.Returning, out)
		}
	}
	return res, nil
}

// write applies one target row. A target someone else wrote since its
// fetch is fetched again and applied again while WHERE still holds, up
// to maxRereads times; one deleted meanwhile is no target. It reports
// whether the row was changed; any other failure fails the statement.
func (ex *selectExec) write(r []any, apply func(*n1ql.Context, *n1ql.Meta) error) (bool, error) {
	meta := r[n1ql.MetaSlot].(*n1ql.Meta)
	for range maxRereads {
		err := apply(ex.at(r), meta)
		switch {
		case err == nil:
			return true, nil
		case errors.Is(err, ErrNotFound):
			return false, nil
		case !errors.Is(err, ErrChanged):
			return false, err
		}
		doc, m, err := ex.ds.Fetch(ex.opts.Context(), ex.p.Keyspace, meta.ID)
		if errors.Is(err, ErrNotFound) {
			return false, nil
		} else if err != nil {
			return false, fmt.Errorf("executor: fetch %q: %w", meta.ID, err)
		}
		r[n1ql.DocSlot], *meta = doc, m
		if ex.p.Where != nil {
			v, err := n1ql.Eval(ex.p.Where, ex.at(r))
			if err != nil || !value.Truthy(v) {
				return false, err
			}
		}
	}
	return false, fmt.Errorf("executor: write %q: %w %d times over", meta.ID, ErrChanged, maxRereads)
}

// ExecuteDelete runs DELETE FROM ...
func ExecuteDelete(mp *planner.MutationPlan, ds Datastore, opts Options) (*MutationResult, error) {
	return mutate(mp, ds, opts, func(_ *n1ql.Context, meta *n1ql.Meta) error {
		if err := ds.DeleteDoc(opts.Context(), mp.Targets.Keyspace, meta.ID, meta.CAS); err != nil {
			return fmt.Errorf("executor: delete %q: %w", meta.ID, err)
		}
		return nil
	})
}

// ExecuteUpdate runs UPDATE ... SET/UNSET.
func ExecuteUpdate(mp *planner.MutationPlan, ds Datastore, opts Options) (*MutationResult, error) {
	alias := mp.Targets.Alias
	return mutate(mp, ds, opts, func(ctx *n1ql.Context, meta *n1ql.Meta) error {
		doc := value.Copy(ctx.Slots[n1ql.DocSlot])
		for _, sc := range mp.Sets {
			nv, err := n1ql.Eval(sc.Val, ctx)
			if err != nil {
				return err
			}
			if doc, err = applyPathSet(doc, sc.Path, alias, nv, ctx); err != nil {
				return err
			}
		}
		for _, un := range mp.Unsets {
			var err error
			if doc, err = applyPathUnset(doc, un, alias, ctx); err != nil {
				return err
			}
		}
		if err := ds.UpdateDoc(opts.Context(), mp.Targets.Keyspace, meta.ID, doc, meta.CAS); err != nil {
			return fmt.Errorf("executor: update %q: %w", meta.ID, err)
		}
		// RETURNING sees the document as written.
		ctx.Slots[n1ql.DocSlot], *meta = doc, n1ql.Meta{ID: meta.ID}
		return nil
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
