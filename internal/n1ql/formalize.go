package n1ql

import "slices"

// rewrite copies e, offering every node to fn first: a non-nil answer
// replaces the node as it stands, nil rebuilds it over its rewritten
// children (a leaf is shared, not copied). bind brackets the part of
// an ANY/EVERY or ARRAY comprehension that sees the bound variable, and
// names the variable's slot.
func rewrite(e Expr, fn func(Expr) Expr, bind func(v string) (slot, func())) Expr {
	if e == nil {
		return nil
	}
	if r := fn(e); r != nil {
		return r
	}
	rw := func(x Expr) Expr { return rewrite(x, fn, bind) }
	all := func(xs []Expr) []Expr {
		out := make([]Expr, len(xs))
		for i, x := range xs {
			out[i] = rw(x)
		}
		return out
	}
	switch t := e.(type) {
	case *Field:
		return &Field{Recv: rw(t.Recv), Name: t.Name}
	case *Element:
		return &Element{Recv: rw(t.Recv), Index: rw(t.Index)}
	case *ArrayConstruct:
		return &ArrayConstruct{Elems: all(t.Elems)}
	case *ObjectConstruct:
		return &ObjectConstruct{Names: t.Names, Vals: all(t.Vals)}
	case *Binary:
		return &Binary{Op: t.Op, LHS: rw(t.LHS), RHS: rw(t.RHS)}
	case *Unary:
		return &Unary{Op: t.Op, Operand: rw(t.Operand)}
	case *Is:
		return &Is{Kind: t.Kind, Operand: rw(t.Operand)}
	case *Between:
		return &Between{Operand: rw(t.Operand), Lo: rw(t.Lo), Hi: rw(t.Hi), Not: t.Not}
	case *FuncCall:
		return &FuncCall{Name: t.Name, Distinct: t.Distinct, Star: t.Star, Args: all(t.Args)}
	case *CaseExpr:
		return &CaseExpr{Operand: rw(t.Operand), Whens: all(t.Whens), Thens: all(t.Thens), Else: rw(t.Else)}
	case *CollPredicate:
		out := &CollPredicate{Kind: t.Kind, Var: t.Var, Coll: rw(t.Coll)}
		var unbind func()
		out.slot, unbind = bind(t.Var)
		out.Satisfies = rw(t.Satisfies)
		unbind()
		return out
	case *ArrayComprehension:
		out := &ArrayComprehension{Var: t.Var, Coll: rw(t.Coll)}
		var unbind func()
		out.slot, unbind = bind(t.Var)
		out.Mapper, out.When = rw(t.Mapper), rw(t.When)
		unbind()
		return out
	}
	return e
}

// MapExpr copies e with every subexpression fn answers non-nil for
// replaced by that answer.
func MapExpr(e Expr, fn func(Expr) Expr) Expr {
	return rewrite(e, fn, func(string) (slot, func()) { return 0, func() {} })
}

// WalkExpr visits e and every sub-expression, stopping early when fn
// returns false for a node (its children are then skipped).
func WalkExpr(e Expr, fn func(Expr) bool) {
	MapExpr(e, func(x Expr) Expr {
		if fn(x) {
			return nil
		}
		return x
	})
}

// Formalize rewrites an expression into keyspace-canonical form: every
// reference to the keyspace's document becomes explicit — the bare
// identifier `email` and the qualified `p.email` (for alias p) both
// become `self.email`, and `meta(p)` becomes `meta()`. Two expressions
// denote the same document property iff their formalized String()s are
// equal, which is how the planner matches query predicates against
// index definitions and how GSI stores index key expressions.
//
// Variables bound by ANY/EVERY and ARRAY comprehensions shadow the
// alias and are left untouched.
func Formalize(e Expr, alias string) Expr {
	bound := map[string]int{}
	return rewrite(e, func(x Expr) Expr {
		switch t := x.(type) {
		case *Ident:
			switch {
			case bound[t.Name] > 0:
				return t
			case t.Name == alias:
				return &Self{}
			}
			return &Field{Recv: &Self{}, Name: t.Name}
		case *MetaExpr:
			if t.Alias == alias {
				return &MetaExpr{}
			}
			return t
		}
		return nil
	}, func(v string) (slot, func()) {
		bound[v]++
		return 0, func() { bound[v]-- }
	})
}

// Scope is the names one statement's expressions can see, each with
// its slot in the row (Context.Slots): keyspace aliases and their
// metadata, UNNEST aliases, comprehension variables, and the planner's
// own names for index keys and aggregate results. The planner binds
// names in pipeline order, resolving each clause when the names it may
// see are bound; after planning a Scope is read-only.
type Scope struct {
	names []scopeName
	def   string // the alias bare identifiers are fields of; "" without a FROM
	// params are the parameter names the scope's expressions read, in
	// ordinal order (Context.BindParams).
	params []string
}

type scopeName struct {
	name string
	kind nameKind
}

type nameKind int

const (
	valueName  nameKind = iota
	metaName            // name is the alias the metadata belongs to
	closedName          // a comprehension variable past its END
)

// A Scope made for an alias keeps the alias's document and metadata in
// its first two slots.
const (
	DocSlot = iota
	MetaSlot
)

// NewScope starts a scope whose default keyspace alias is alias ("" for
// a statement without one).
func NewScope(alias string) *Scope {
	s := &Scope{def: alias}
	if alias != "" {
		s.Bind(alias)
		s.BindMeta(alias)
	}
	return s
}

// Len is the number of slots a row of this scope needs.
func (s *Scope) Len() int { return len(s.names) }

// Bind returns the slot of name's value, adding one for a new name.
func (s *Scope) Bind(name string) int { return s.bind(name, valueName) }

// BindMeta returns the slot of alias's document metadata.
func (s *Scope) BindMeta(alias string) int { return s.bind(alias, metaName) }

func (s *Scope) bind(name string, kind nameKind) int {
	if at := s.find(name, kind); at != 0 {
		return int(at) - 1
	}
	s.names = append(s.names, scopeName{name, kind})
	return len(s.names) - 1
}

// find looks name up innermost first; 0 means not visible.
func (s *Scope) find(name string, kind nameKind) slot {
	for i := len(s.names) - 1; i >= 0; i-- {
		if s.names[i] == (scopeName{name, kind}) {
			return slot(i + 1)
		}
	}
	return 0
}

// open gives a comprehension variable a slot of its own, visible until
// the returned function is called.
func (s *Scope) open(v string) (slot, func()) {
	s.names = append(s.names, scopeName{v, valueName})
	at := len(s.names)
	return slot(at), func() { s.names[at-1].kind = closedName }
}

func aggSlotName(fc *FuncCall) string { return "$agg:" + fc.String() }

// BindAggregate returns the slot for fc's result. Expressions resolved
// afterwards read the call from there; ones resolved before still
// refuse it as an aggregate outside GROUP BY.
func (s *Scope) BindAggregate(fc *FuncCall) int { return s.Bind(aggSlotName(fc)) }

// Resolve copies e with every name settled to its slot in s: an
// identifier reads a bound name's slot or else a field of the default
// alias's document, meta() an alias's metadata, an aggregate call bound
// by BindAggregate its result, and a parameter its ordinal. The copy
// prints as e does. Every expression handed to Eval goes through here
// first; an unresolved name evaluates as unbound (MISSING).
func (s *Scope) Resolve(e Expr) Expr {
	meta := func(m *MetaExpr, field string) Expr {
		alias := m.Alias
		if alias == "" {
			alias = s.def
		}
		return &MetaExpr{Alias: m.Alias, field: field, slot: s.find(alias, metaName)}
	}
	return rewrite(e, func(x Expr) Expr {
		switch t := x.(type) {
		case *Ident:
			if at := s.find(t.Name, valueName); at != 0 {
				return &Ident{Name: t.Name, slot: at}
			}
			return &Ident{Name: t.Name, slot: s.find(s.def, valueName), field: true}
		case *Self:
			return &Self{slot: s.find(s.def, valueName)}
		case *MetaExpr:
			return meta(t, t.field)
		case *Field:
			if m, ok := t.Recv.(*MetaExpr); ok && m.field == "" {
				return meta(m, t.Name)
			}
		case *Param:
			return &Param{Name: t.Name, ord: s.param(t.Name)}
		case *FuncCall:
			if IsAggregate(t.Name) {
				if at := s.find(aggSlotName(t), valueName); at != 0 {
					return &FuncCall{Name: t.Name, Args: t.Args, Distinct: t.Distinct, Star: t.Star, slot: at}
				}
			}
		}
		return nil
	}, s.open)
}

// param returns the ordinal of the parameter called name, adding one
// for a new name.
func (s *Scope) param(name string) int {
	if i := slices.Index(s.params, name); i >= 0 {
		return i + 1
	}
	s.params = append(s.params, name)
	return len(s.params)
}

// ResolveAll resolves each of es.
func (s *Scope) ResolveAll(es []Expr) []Expr {
	if es == nil {
		return nil
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = s.Resolve(e)
	}
	return out
}

// NewContext returns a row of a scope made for an alias, holding that
// alias's document and metadata.
func (s *Scope) NewContext(doc any, meta Meta) *Context {
	c := &struct {
		Context
		meta Meta
	}{meta: meta}
	c.Slots = make([]any, len(s.names))
	c.Slots[DocSlot], c.Slots[MetaSlot] = doc, &c.meta
	return &c.Context
}

// ConjunctsOf splits a predicate into its top-level AND conjuncts.
func ConjunctsOf(e Expr) []Expr {
	if b, ok := e.(*Binary); ok && b.Op == OpAnd {
		return append(ConjunctsOf(b.LHS), ConjunctsOf(b.RHS)...)
	}
	if e == nil {
		return nil
	}
	return []Expr{e}
}

// IsConstant reports whether e references no document data (it may
// reference parameters, which are constant for one execution).
func IsConstant(e Expr) bool {
	constant := true
	WalkExpr(e, func(x Expr) bool {
		switch x.(type) {
		case *Ident, *Field, *Element, *Self, *MetaExpr:
			constant = false
			return false
		}
		return true
	})
	return constant
}
