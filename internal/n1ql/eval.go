package n1ql

import (
	"fmt"
	"regexp"
	"strings"
	"sync"

	"couchgo/internal/value"
)

// Meta is the document metadata exposed by META(): meta().id,
// meta().cas, etc. (the workload-E query in the paper's appendix is
// `SELECT meta().id FROM bucket WHERE meta().id >= $1 LIMIT $2`).
type Meta struct {
	ID    string
	CAS   uint64
	Seqno uint64
}

// Context is one row's evaluation environment: the value of every
// name the statement's Scope gave a slot (a keyspace alias's metadata
// as a *Meta), and the query parameters. Evaluating a comprehension
// writes its variable's slot, so a Context serves one goroutine.
type Context struct {
	Slots  []any
	Params map[string]any

	// params holds Params by ordinal once BindParams has run, unbound{}
	// for a parameter Params lacks. In a Context nobody bound, a
	// parameter reads Params by name.
	params []any
}

// unbound marks a parameter the execution supplied no value for: an
// error only when an expression reads it.
type unbound struct{}

// BindParams makes params the parameters of every evaluation in c of an
// expression s resolved, looked up once here rather than per row. A
// parameter params lacks is not an error unless it is evaluated.
func (c *Context) BindParams(s *Scope, params map[string]any) {
	c.Params, c.params = params, c.params[:0]
	if cap(c.params) < len(s.params) {
		c.params = make([]any, 0, len(s.params))
	}
	for _, name := range s.params {
		v, ok := params[name]
		if !ok {
			v = unbound{}
		}
		c.params = append(c.params, v)
	}
}

// Unbind forgets c's row and parameters but keeps the room BindParams
// made, so a Context kept for the next execution pins no value.
func (c *Context) Unbind() {
	clear(c.params)
	c.Slots, c.Params, c.params = nil, nil, c.params[:0]
}

// get reads a resolved name; an unresolved one is unbound.
func (s slot) get(ctx *Context) any {
	if s == 0 {
		return value.Missing
	}
	return ctx.Slots[s-1]
}

// each evaluates body once per element with the comprehension variable
// bound to it, until body says stop.
func (s slot) each(ctx *Context, arr []any, body func() (stop bool, err error)) error {
	if s == 0 {
		return fmt.Errorf("n1ql: comprehension evaluated before Scope.Resolve")
	}
	for _, el := range arr {
		ctx.Slots[s-1] = el
		if stop, err := body(); stop || err != nil {
			return err
		}
	}
	return nil
}

// Eval evaluates e in ctx. Errors are reserved for structural problems
// (unknown function, missing parameter); data-dependent oddities
// produce MISSING or NULL per N1QL semantics.
func Eval(e Expr, ctx *Context) (any, error) { return e.eval(ctx) }

// --- eval implementations ---

func (e *Literal) eval(*Context) (any, error) { return e.Val, nil }

func (e *Self) eval(ctx *Context) (any, error) { return e.slot.get(ctx), nil }

func (e *Ident) eval(ctx *Context) (any, error) {
	v := e.slot.get(ctx)
	if e.field {
		return value.Field(v, e.Name), nil
	}
	return v, nil
}

func (e *Field) eval(ctx *Context) (any, error) {
	recv, err := e.Recv.eval(ctx)
	if err != nil {
		return nil, err
	}
	return value.Field(recv, e.Name), nil
}

func (e *Element) eval(ctx *Context) (any, error) {
	recv, err := e.Recv.eval(ctx)
	if err != nil {
		return nil, err
	}
	idx, err := e.Index.eval(ctx)
	if err != nil {
		return nil, err
	}
	f, ok := value.AsNumber(idx)
	if !ok {
		return value.Missing, nil
	}
	return value.Index(recv, int(f)), nil
}

func (e *ArrayConstruct) eval(ctx *Context) (any, error) {
	out := make([]any, len(e.Elems))
	for i, el := range e.Elems {
		v, err := el.eval(ctx)
		if err != nil {
			return nil, err
		}
		if value.IsMissing(v) {
			v = nil // MISSING inside a constructed array becomes NULL
		}
		out[i] = v
	}
	return out, nil
}

func (e *ObjectConstruct) eval(ctx *Context) (any, error) {
	out := make(map[string]any, len(e.Names))
	for i := range e.Names {
		v, err := e.Vals[i].eval(ctx)
		if err != nil {
			return nil, err
		}
		if value.IsMissing(v) {
			continue // MISSING fields are omitted from objects
		}
		out[e.Names[i]] = v
	}
	return out, nil
}

func (e *Param) eval(ctx *Context) (any, error) {
	if i := e.ord - 1; i >= 0 && i < len(ctx.params) {
		if v := ctx.params[i]; v != (unbound{}) {
			return v, nil
		}
	} else if v, ok := ctx.Params[e.Name]; ok {
		return v, nil
	}
	return nil, fmt.Errorf("n1ql: no value supplied for parameter $%s", e.Name)
}

func (e *MetaExpr) eval(ctx *Context) (any, error) {
	m, ok := e.slot.get(ctx).(*Meta)
	if !ok {
		return value.Missing, nil
	}
	switch e.field {
	case "":
		return map[string]any{"id": m.ID, "cas": float64(m.CAS), "seqno": float64(m.Seqno)}, nil
	case "id":
		return m.ID, nil
	case "cas":
		return float64(m.CAS), nil
	case "seqno":
		return float64(m.Seqno), nil
	}
	return value.Missing, nil
}

func (e *Binary) eval(ctx *Context) (any, error) {
	switch e.Op {
	case OpAnd:
		return evalAnd(e.LHS, e.RHS, ctx)
	case OpOr:
		return evalOr(e.LHS, e.RHS, ctx)
	}
	l, err := e.LHS.eval(ctx)
	if err != nil {
		return nil, err
	}
	r, err := e.RHS.eval(ctx)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return evalCompare(e.Op, l, r), nil
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		return evalArith(e.Op, l, r), nil
	case OpConcat:
		return evalConcat(l, r), nil
	case OpLike:
		return evalLike(l, r)
	case OpIn:
		return evalIn(l, r), nil
	}
	return nil, fmt.Errorf("n1ql: unknown binary operator %d", e.Op)
}

// evalAnd implements three-valued AND with MISSING:
// FALSE dominates; then MISSING; then NULL; else TRUE.
func evalAnd(lhs, rhs Expr, ctx *Context) (any, error) {
	l, err := lhs.eval(ctx)
	if err != nil {
		return nil, err
	}
	if l == false {
		return false, nil
	}
	r, err := rhs.eval(ctx)
	if err != nil {
		return nil, err
	}
	return and3(l, r), nil
}

func and3(l, r any) any {
	if l == false || r == false {
		return false
	}
	lb := truthState(l)
	rb := truthState(r)
	if lb == stateTrue && rb == stateTrue {
		return true
	}
	if lb == stateMissing || rb == stateMissing {
		return value.Missing
	}
	return nil
}

// evalOr: TRUE dominates; then MISSING; then NULL; else FALSE.
func evalOr(lhs, rhs Expr, ctx *Context) (any, error) {
	l, err := lhs.eval(ctx)
	if err != nil {
		return nil, err
	}
	if l == true {
		return true, nil
	}
	r, err := rhs.eval(ctx)
	if err != nil {
		return nil, err
	}
	if r == true {
		return true, nil
	}
	lb := truthState(l)
	rb := truthState(r)
	if lb == stateFalse && rb == stateFalse {
		return false, nil
	}
	if lb == stateMissing || rb == stateMissing {
		return value.Missing, nil
	}
	return nil, nil
}

type tState int

const (
	stateFalse tState = iota
	stateTrue
	stateNull
	stateMissing
)

func truthState(v any) tState {
	switch {
	case v == true:
		return stateTrue
	case v == false:
		return stateFalse
	case value.IsMissing(v):
		return stateMissing
	default:
		return stateNull // non-boolean values behave as NULL in logic
	}
}

// evalCompare: MISSING if either side MISSING; NULL if either NULL;
// else collation comparison.
func evalCompare(op BinOp, l, r any) any {
	if value.IsMissing(l) || value.IsMissing(r) {
		return value.Missing
	}
	if l == nil || r == nil {
		return nil
	}
	c := value.Compare(l, r)
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpLe:
		return c <= 0
	case OpGt:
		return c > 0
	case OpGe:
		return c >= 0
	}
	return nil
}

func evalArith(op BinOp, l, r any) any {
	if value.IsMissing(l) || value.IsMissing(r) {
		return value.Missing
	}
	lf, lok := value.AsNumber(l)
	rf, rok := value.AsNumber(r)
	if !lok || !rok {
		return nil
	}
	switch op {
	case OpAdd:
		return lf + rf
	case OpSub:
		return lf - rf
	case OpMul:
		return lf * rf
	case OpDiv:
		if rf == 0 {
			return nil
		}
		return lf / rf
	case OpMod:
		if int64(rf) == 0 {
			return nil
		}
		return float64(int64(lf) % int64(rf))
	}
	return nil
}

func evalConcat(l, r any) any {
	if value.IsMissing(l) || value.IsMissing(r) {
		return value.Missing
	}
	ls, lok := l.(string)
	rs, rok := r.(string)
	if !lok || !rok {
		return nil
	}
	return ls + rs
}

// likeCache memoizes compiled LIKE patterns.
var likeCache sync.Map // string -> *regexp.Regexp

func evalLike(l, r any) (any, error) {
	if value.IsMissing(l) || value.IsMissing(r) {
		return value.Missing, nil
	}
	s, sok := l.(string)
	pat, pok := r.(string)
	if !sok || !pok {
		return nil, nil
	}
	re, err := likeRegexp(pat)
	if err != nil {
		return nil, err
	}
	return re.MatchString(s), nil
}

func likeRegexp(pat string) (*regexp.Regexp, error) {
	if re, ok := likeCache.Load(pat); ok {
		return re.(*regexp.Regexp), nil
	}
	var b strings.Builder
	b.WriteString("(?s)^")
	for i := 0; i < len(pat); i++ {
		switch c := pat[i]; c {
		case '%':
			b.WriteString(".*")
		case '_':
			b.WriteString(".")
		case '\\':
			if i+1 < len(pat) {
				b.WriteString(regexp.QuoteMeta(string(pat[i+1])))
				i++
			}
		default:
			b.WriteString(regexp.QuoteMeta(string(c)))
		}
	}
	b.WriteString("$")
	re, err := regexp.Compile(b.String())
	if err != nil {
		return nil, fmt.Errorf("n1ql: bad LIKE pattern %q: %w", pat, err)
	}
	likeCache.Store(pat, re)
	return re, nil
}

func evalIn(l, r any) any {
	if value.IsMissing(l) || value.IsMissing(r) {
		return value.Missing
	}
	arr, ok := r.([]any)
	if !ok {
		return nil
	}
	sawNull := false
	for _, el := range arr {
		if el == nil || value.IsMissing(el) {
			sawNull = true
			continue
		}
		if l != nil && value.Compare(l, el) == 0 {
			return true
		}
	}
	if l == nil || sawNull {
		return nil
	}
	return false
}

func (e *Unary) eval(ctx *Context) (any, error) {
	v, err := e.Operand.eval(ctx)
	if err != nil {
		return nil, err
	}
	switch e.Op {
	case OpNot:
		switch truthState(v) {
		case stateTrue:
			return false, nil
		case stateFalse:
			return true, nil
		case stateMissing:
			return value.Missing, nil
		default:
			return nil, nil
		}
	case OpNeg:
		if value.IsMissing(v) {
			return value.Missing, nil
		}
		f, ok := value.AsNumber(v)
		if !ok {
			return nil, nil
		}
		return -f, nil
	}
	return nil, fmt.Errorf("n1ql: unknown unary operator %d", e.Op)
}

func (e *Is) eval(ctx *Context) (any, error) {
	v, err := e.Operand.eval(ctx)
	if err != nil {
		return nil, err
	}
	missing := value.IsMissing(v)
	null := !missing && v == nil
	switch e.Kind {
	case IsNull:
		if missing {
			return value.Missing, nil
		}
		return null, nil
	case IsNotNull:
		if missing {
			return value.Missing, nil
		}
		return !null, nil
	case IsMissingP:
		return missing, nil
	case IsNotMissing:
		return !missing, nil
	case IsValued:
		return !missing && !null, nil
	case IsNotValued:
		return missing || null, nil
	}
	return nil, fmt.Errorf("n1ql: unknown IS kind %d", e.Kind)
}

func (e *Between) eval(ctx *Context) (any, error) {
	v, err := e.Operand.eval(ctx)
	if err != nil {
		return nil, err
	}
	lo, err := e.Lo.eval(ctx)
	if err != nil {
		return nil, err
	}
	hi, err := e.Hi.eval(ctx)
	if err != nil {
		return nil, err
	}
	ge := evalCompare(OpGe, v, lo)
	le := evalCompare(OpLe, v, hi)
	res := and3(ge, le)
	if e.Not {
		switch truthState(res) {
		case stateTrue:
			return false, nil
		case stateFalse:
			return true, nil
		}
	}
	return res, nil
}

func (e *CollPredicate) eval(ctx *Context) (any, error) {
	coll, err := e.Coll.eval(ctx)
	if err != nil {
		return nil, err
	}
	arr, ok := coll.([]any)
	if !ok {
		if value.IsMissing(coll) {
			return value.Missing, nil
		}
		return nil, nil
	}
	// ANY stops at the first element that satisfies, EVERY at the first
	// that does not (EVERY over an empty array is TRUE).
	every := e.Kind == CollEvery
	res := every
	err = e.slot.each(ctx, arr, func() (bool, error) {
		v, err := e.Satisfies.eval(ctx)
		res = v == true
		return res != every, err
	})
	return res, err
}

func (e *ArrayComprehension) eval(ctx *Context) (any, error) {
	coll, err := e.Coll.eval(ctx)
	if err != nil {
		return nil, err
	}
	arr, ok := coll.([]any)
	if !ok {
		if value.IsMissing(coll) {
			return value.Missing, nil
		}
		return nil, nil
	}
	out := make([]any, 0, len(arr))
	err = e.slot.each(ctx, arr, func() (bool, error) {
		if e.When != nil {
			if w, err := e.When.eval(ctx); err != nil || w != true {
				return false, err
			}
		}
		v, err := e.Mapper.eval(ctx)
		if value.IsMissing(v) {
			v = nil
		}
		out = append(out, v)
		return false, err
	})
	return out, err
}

func (e *CaseExpr) eval(ctx *Context) (any, error) {
	if e.Operand != nil {
		op, err := e.Operand.eval(ctx)
		if err != nil {
			return nil, err
		}
		for i := range e.Whens {
			w, err := e.Whens[i].eval(ctx)
			if err != nil {
				return nil, err
			}
			if !value.IsMissing(op) && !value.IsMissing(w) && value.Compare(op, w) == 0 {
				return e.Thens[i].eval(ctx)
			}
		}
	} else {
		for i := range e.Whens {
			w, err := e.Whens[i].eval(ctx)
			if err != nil {
				return nil, err
			}
			if w == true {
				return e.Thens[i].eval(ctx)
			}
		}
	}
	if e.Else != nil {
		return e.Else.eval(ctx)
	}
	return nil, nil
}

func (e *FuncCall) eval(ctx *Context) (any, error) {
	if e.slot != 0 {
		return e.slot.get(ctx), nil
	}
	if IsAggregate(e.Name) {
		return nil, fmt.Errorf("n1ql: aggregate %s used outside GROUP BY context", e.Name)
	}
	fn, ok := builtins[e.Name]
	if !ok {
		return nil, fmt.Errorf("n1ql: unknown function %s", e.Name)
	}
	args := make([]any, len(e.Args))
	for i, a := range e.Args {
		v, err := a.eval(ctx)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return fn(args)
}
