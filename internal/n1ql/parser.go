package n1ql

import (
	"fmt"
	"strconv"
	"strings"

	"couchgo/internal/value"
)

// Parse parses one N1QL statement.
func Parse(src string) (Statement, error) {
	return parse(src, func(p *parser) Statement {
		stmt := p.statement()
		p.accept(";")
		p.end("statement")
		return stmt
	})
}

// ParseExpr parses a standalone expression (index definitions, view map
// specs, and filters reuse the expression language this way).
func ParseExpr(src string) (Expr, error) {
	return parse(src, func(p *parser) Expr {
		e := p.expr()
		p.end("expression")
		return e
	})
}

// parseError is a syntax error. The parser panics with one where it
// finds it, and parse recovers it, so no parsing step returns an error.
type parseError struct{ err error }

// parse lexes src and runs fn over its tokens. It recovers a parseError
// only: any other panic is a parser bug and goes on up.
func parse[T any](src string, fn func(*parser) T) (out T, err error) {
	toks, err := lex(src)
	if err != nil {
		return out, err
	}
	defer func() {
		if r := recover(); r != nil {
			pe, ok := r.(parseError)
			if !ok {
				panic(r)
			}
			err = pe.err
		}
	}()
	return fn(&parser{toks: toks}), nil
}

type parser struct {
	toks []token // the last is tkEOF
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }

// after is the token after the current one (the end repeats).
func (p *parser) after() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

// fail panics with a parseError at the current token.
func (p *parser) fail(format string, args ...any) {
	panic(parseError{fmt.Errorf("n1ql: parse error at position %d: %s", p.peek().pos, fmt.Sprintf(format, args...))})
}

// isWord reports whether t is the keyword or operator w.
func isWord(t token, w string) bool { return (t.kind == tkKeyword || t.kind == tkOp) && t.text == w }

func (p *parser) at(w string) bool { return isWord(p.peek(), w) }

func (p *parser) accept(w string) bool {
	if p.at(w) {
		p.pos++
		return true
	}
	return false
}

// expect consumes the keywords and operators words, in order.
func (p *parser) expect(words ...string) {
	for _, w := range words {
		if p.accept(w) {
			continue
		}
		if keywords[w] {
			p.fail("expected %s, found %s", w, p.peek())
		}
		p.fail("expected %q, found %s", w, p.peek())
	}
}

func (p *parser) end(what string) {
	if p.peek().kind != tkEOF {
		p.fail("unexpected %s after %s", p.peek(), what)
	}
}

func (p *parser) ident() string {
	t := p.peek()
	if t.kind != tkIdent {
		p.fail("expected identifier, found %s", t)
	}
	p.pos++
	return t.text
}

// alias parses an optional [AS] name; def when there is none.
func (p *parser) alias(def string) string {
	if p.accept("AS") || p.peek().kind == tkIdent {
		return p.ident()
	}
	return def
}

// clause parses `kw expr` when kw[0] is next (kw[1:] must follow it),
// and is nil when it is not.
func (p *parser) clause(kw ...string) Expr {
	if !p.accept(kw[0]) {
		return nil
	}
	p.expect(kw[1:]...)
	return p.expr()
}

// list parses one or more items separated by commas.
func list[T any](p *parser, item func() T) []T {
	out := []T{item()}
	for p.accept(",") {
		out = append(out, item())
	}
	return out
}

// --- Statements ---

func (p *parser) statement() Statement {
	switch {
	case p.accept("EXPLAIN"):
		return &Explain{Target: p.statement()}
	case p.accept("SELECT"):
		return p.selectStatement()
	case p.accept("INSERT"):
		return p.insert(false)
	case p.accept("UPSERT"):
		return p.insert(true)
	case p.accept("UPDATE"):
		return p.update()
	case p.accept("DELETE"):
		return p.delete()
	case p.accept("CREATE"):
		return p.create()
	case p.accept("DROP"):
		return p.drop()
	}
	p.fail("expected a statement, found %s", p.peek())
	return nil
}

func (p *parser) selectStatement() *Select {
	sel := &Select{Distinct: p.accept("DISTINCT")}
	if !sel.Distinct {
		p.accept("ALL") // the default
	}
	if p.accept("RAW") {
		sel.Raw = true
		rt := ResultTerm{Expr: p.expr()}
		if p.accept("AS") {
			rt.Alias = p.ident()
		}
		sel.Projection = []ResultTerm{rt}
	} else {
		sel.Projection = p.projection()
	}
	if p.accept("FROM") {
		p.from(sel)
	}
	sel.Where = p.clause("WHERE")
	if p.accept("GROUP") {
		p.expect("BY")
		sel.GroupBy = list(p, p.expr)
		sel.Having = p.clause("HAVING")
	}
	if p.accept("ORDER") {
		p.expect("BY")
		sel.OrderBy = list(p, func() OrderTerm {
			ot := OrderTerm{Expr: p.expr()}
			if ot.Desc = p.accept("DESC"); !ot.Desc {
				p.accept("ASC")
			}
			return ot
		})
	}
	sel.Limit = p.clause("LIMIT")
	sel.Offset = p.clause("OFFSET")
	return sel
}

// from parses what follows FROM: the keyspace, its alias, USE KEYS, and
// the JOIN, NEST and UNNEST terms in order.
func (p *parser) from(sel *Select) {
	sel.Keyspace = p.ident()
	sel.Alias = sel.Keyspace
	// A dotted keyspace (catalog.details in the paper's EXPLAIN example)
	// keeps its full name; its last component is the default alias.
	for p.accept(".") {
		sel.Alias = p.ident()
		sel.Keyspace += "." + sel.Alias
	}
	sel.Alias = p.alias(sel.Alias)
	sel.UseKeys = p.clause("USE", "KEYS")
	for {
		kind, qualified := JoinInner, true
		if p.accept("LEFT") {
			p.accept("OUTER")
			kind = JoinLeftOuter
		} else if !p.accept("INNER") {
			qualified = false
		}
		switch {
		case p.accept("JOIN"):
			sel.Joins = append(sel.Joins, p.join(kind, false))
		case p.accept("NEST"):
			sel.Joins = append(sel.Joins, p.join(kind, true))
		case p.accept("UNNEST"):
			e := p.expr()
			sel.Unnests = append(sel.Unnests, UnnestTerm{Kind: kind, Expr: e, Alias: p.alias(lastPathComponent(e))})
		case qualified:
			p.fail("expected JOIN, NEST, or UNNEST after join qualifier")
		default:
			return
		}
	}
}

func (p *parser) projection() []ResultTerm {
	return list(p, func() ResultTerm {
		if p.accept("*") {
			return ResultTerm{Star: true}
		}
		e := p.expr()
		if p.accept(".") { // alias.*: postfix leaves ".*" here
			p.expect("*")
			return ResultTerm{Expr: e, Star: true}
		}
		return ResultTerm{Expr: e, Alias: p.alias("")}
	})
}

func (p *parser) join(kind JoinKind, nest bool) JoinTerm {
	jt := JoinTerm{Kind: kind, Nest: nest, Keyspace: p.ident()}
	jt.Alias = p.alias(jt.Keyspace)
	p.expect("ON")
	if p.accept("KEYS") {
		jt.OnKeys = p.expr()
	} else {
		jt.OnCond = p.expr()
	}
	return jt
}

// lastPathComponent is an UNNEST term's default alias.
func lastPathComponent(e Expr) string {
	switch t := e.(type) {
	case *Field:
		return t.Name
	case *Ident:
		return t.Name
	case *Element:
		return lastPathComponent(t.Recv)
	}
	return "unnest"
}

func (p *parser) returning() []ResultTerm {
	if !p.accept("RETURNING") {
		return nil
	}
	return p.projection()
}

func (p *parser) insert(upsert bool) *Insert {
	ins := &Insert{Upsert: upsert}
	p.expect("INTO")
	ins.Keyspace = p.ident()
	p.expect("(", "KEY", ",", "VALUE", ")", "VALUES")
	ins.ValExprs = list(p, func() Expr { // (k, v) [, (k, v)]...
		p.expect("(")
		ins.KeyExprs = append(ins.KeyExprs, p.expr())
		p.expect(",")
		v := p.expr()
		p.expect(")")
		return v
	})
	ins.Returning = p.returning()
	return ins
}

func (p *parser) update() *Update {
	upd := &Update{Keyspace: p.ident()}
	upd.Alias = p.alias(upd.Keyspace)
	upd.UseKeys = p.clause("USE", "KEYS")
	if p.accept("SET") {
		upd.Sets = list(p, func() SetClause {
			// The target is a path (postfix chain), not an expression:
			// `a.x = 1` must not parse as equality.
			path := p.postfix()
			p.expect("=")
			return SetClause{Path: path, Val: p.expr()}
		})
	}
	if p.accept("UNSET") {
		upd.Unsets = list(p, p.postfix)
	}
	upd.Where = p.clause("WHERE")
	upd.Limit = p.clause("LIMIT")
	upd.Returning = p.returning()
	return upd
}

func (p *parser) delete() *Delete {
	p.expect("FROM")
	del := &Delete{Keyspace: p.ident()}
	del.Alias = p.alias(del.Keyspace)
	del.UseKeys = p.clause("USE", "KEYS")
	del.Where = p.clause("WHERE")
	del.Limit = p.clause("LIMIT")
	del.Returning = p.returning()
	return del
}

func (p *parser) create() Statement {
	ci := &CreateIndex{Using: UsingGSI, Primary: p.accept("PRIMARY")}
	p.expect("INDEX")
	if p.peek().kind == tkIdent {
		ci.Name = p.ident()
	}
	if ci.Name == "" && !ci.Primary {
		p.fail("secondary index requires a name")
	}
	if ci.Name == "" {
		ci.Name = "#primary"
	}
	p.expect("ON")
	ci.Keyspace = p.ident()
	if !ci.Primary {
		p.expect("(")
		ci.Keys = list(p, p.expr)
		p.expect(")")
	}
	ci.Where = p.clause("WHERE")
	if p.accept("USING") {
		switch {
		case p.accept("GSI"):
		case p.accept("VIEW"):
			ci.Using = UsingView
		default:
			p.fail("expected GSI or VIEW after USING")
		}
	}
	if with := p.clause("WITH"); with != nil {
		obj, err := Eval(with, &Context{})
		if err != nil {
			p.fail("WITH clause must be a constant object: %v", err)
		}
		m, ok := obj.(map[string]any)
		if !ok {
			p.fail("WITH clause must be an object")
		}
		ci.With = m
	}
	return ci
}

func (p *parser) drop() Statement {
	switch {
	case p.accept("INDEX"):
		ks := p.ident()
		p.expect(".")
		return &DropIndex{Keyspace: ks, Name: p.ident()}
	case p.accept("PRIMARY"):
		p.expect("INDEX", "ON")
		return &DropIndex{Keyspace: p.ident(), Name: "#primary"}
	}
	p.fail("expected INDEX after DROP")
	return nil
}

// --- Expressions (precedence climbing) ---

// Precedence levels, loosest first. NOT sits between AND and the
// comparisons; BETWEEN, IS and NOT LIKE/IN/BETWEEN are comparisons.
const (
	levelOr = 1 + iota
	levelAnd
	levelNot
	levelCmp
	levelAdd
	levelMul
)

// binOps is the one binary-operator table: each operator's spelling,
// which Binary.String prints, another spelling the parser also reads,
// and its precedence level.
var binOps = [...]struct {
	text, alt string
	level     int
}{
	OpOr: {"OR", "", levelOr}, OpAnd: {"AND", "", levelAnd},
	OpEq: {"=", "==", levelCmp}, OpNe: {"!=", "<>", levelCmp},
	OpLt: {"<", "", levelCmp}, OpLe: {"<=", "", levelCmp},
	OpGt: {">", "", levelCmp}, OpGe: {">=", "", levelCmp},
	OpLike: {"LIKE", "", levelCmp}, OpIn: {"IN", "", levelCmp},
	OpAdd: {"+", "", levelAdd}, OpSub: {"-", "", levelAdd}, OpConcat: {"||", "", levelAdd},
	OpMul: {"*", "", levelMul}, OpDiv: {"/", "", levelMul}, OpMod: {"%", "", levelMul},
}

func (p *parser) expr() Expr { return p.binary(levelOr) }

// binary parses an expression whose operators are of level floor or
// tighter. A level-l operator's right operand binds level l+1 and
// tighter, so every binary operator associates left.
func (p *parser) binary(floor int) Expr {
	var lhs Expr
	if floor <= levelNot && p.accept("NOT") {
		lhs = &Unary{Op: OpNot, Operand: p.binary(levelNot)}
	} else {
		lhs = p.unary()
	}
	for {
		if floor <= levelCmp {
			if e := p.predicate(lhs); e != nil {
				lhs = e
				continue
			}
		}
		op, ok := p.binOp(floor)
		if !ok {
			return lhs
		}
		lhs = &Binary{Op: op, LHS: lhs, RHS: p.binary(binOps[op].level + 1)}
	}
}

// binOp consumes the next token if the table spells it at level floor
// or tighter.
func (p *parser) binOp(floor int) (BinOp, bool) {
	t := p.peek()
	for op, o := range binOps {
		if o.level >= floor && (isWord(t, o.text) || isWord(t, o.alt)) {
			p.pos++
			return BinOp(op), true
		}
	}
	return 0, false
}

// predicate parses the comparisons the operator table does not spell:
// IS [NOT] NULL|MISSING|VALUED, [NOT] BETWEEN lo AND hi, and NOT LIKE|IN.
// It is nil when none follows lhs; a NOT that starts none is left.
func (p *parser) predicate(lhs Expr) Expr {
	if p.accept("IS") {
		not := p.accept("NOT")
		for i, w := range [...]string{"NULL", "MISSING", "VALUED"} {
			if p.accept(w) {
				kind := IsKind(2 * i) // IsNull, IsMissingP, IsValued; each NOT form follows it
				if not {
					kind++
				}
				return &Is{Kind: kind, Operand: lhs}
			}
		}
		p.fail("expected NULL, MISSING, or VALUED after IS")
	}
	next := p.after()
	not := p.at("NOT") && (isWord(next, "BETWEEN") || isWord(next, "LIKE") || isWord(next, "IN"))
	if not {
		p.pos++
	}
	if p.accept("BETWEEN") {
		lo := p.binary(levelAdd)
		p.expect("AND")
		return &Between{Operand: lhs, Lo: lo, Hi: p.binary(levelAdd), Not: not}
	}
	if !not {
		return nil
	}
	op, _ := p.binOp(levelCmp) // LIKE or IN
	return &Unary{Op: OpNot, Operand: &Binary{Op: op, LHS: lhs, RHS: p.binary(levelAdd)}}
}

func (p *parser) unary() Expr {
	if !p.accept("-") {
		return p.postfix()
	}
	e := p.unary()
	if lit, ok := e.(*Literal); ok {
		if f, isNum := value.AsNumber(lit.Val); isNum {
			return &Literal{Val: -f}
		}
	}
	return &Unary{Op: OpNeg, Operand: e}
}

func (p *parser) postfix() Expr {
	e := p.primary()
	for {
		switch {
		case p.at(".") && !isWord(p.after(), "*"): // the projection takes ".*"
			p.pos++
			e = &Field{Recv: e, Name: p.fieldName()}
		case p.accept("["):
			idx := p.expr()
			p.expect("]")
			e = &Element{Recv: e, Index: idx}
		default:
			return e
		}
	}
}

// fieldName allows keywords after a dot (doc.end, doc.key, ...). The
// lexer upper-cased a keyword; it reads back in lower case (backticks
// keep the exact case).
func (p *parser) fieldName() string {
	t := p.peek()
	if t.kind == tkKeyword {
		p.pos++
		return strings.ToLower(t.text)
	}
	if t.kind != tkIdent {
		p.fail("expected field name, found %s", t)
	}
	return p.ident()
}

func (p *parser) primary() Expr {
	t := p.peek()
	p.pos++
	switch t.kind {
	case tkNumber:
		f, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			p.fail("bad number %q", t.text)
		}
		return &Literal{Val: f}
	case tkString:
		return &Literal{Val: t.text}
	case tkParam:
		return &Param{Name: t.text}
	case tkIdent:
		if p.accept("(") {
			return p.call(t.text)
		}
		if strings.EqualFold(t.text, "self") {
			return &Self{}
		}
		return &Ident{Name: t.text}
	case tkKeyword:
		switch t.text {
		case "TRUE":
			return &Literal{Val: true}
		case "FALSE":
			return &Literal{Val: false}
		case "NULL":
			return &Literal{Val: nil}
		case "MISSING":
			return &Literal{Val: value.Missing}
		case "CASE":
			return p.caseExpr()
		case "ANY", "EVERY":
			return p.collPredicate(t.text)
		case "ARRAY":
			return p.arrayComprehension()
		case "EXISTS":
			return &FuncCall{Name: "EXISTS", Args: []Expr{p.unary()}}
		}
	case tkOp:
		switch t.text {
		case "(":
			e := p.expr()
			p.expect(")")
			return e
		case "[":
			ac := &ArrayConstruct{}
			if !p.accept("]") {
				ac.Elems = list(p, p.expr)
				p.expect("]")
			}
			return ac
		case "{":
			oc := &ObjectConstruct{}
			if !p.accept("}") {
				oc.Vals = list(p, func() Expr {
					name := p.peek()
					if name.kind != tkString && name.kind != tkIdent {
						p.fail("expected field name in object literal, found %s", name)
					}
					p.pos++
					p.expect(":")
					oc.Names = append(oc.Names, name.text)
					return p.expr()
				})
				p.expect("}")
			}
			return oc
		}
	}
	p.pos-- // the error is at t
	if t.kind == tkKeyword {
		p.fail("unexpected keyword %s in expression", t)
	}
	p.fail("unexpected %s in expression", t)
	return nil
}

func (p *parser) call(name string) Expr {
	upper := strings.ToUpper(name)
	if upper == "META" {
		m := &MetaExpr{}
		if !p.at(")") {
			m.Alias = p.ident()
		}
		p.expect(")")
		return m
	}
	fc := &FuncCall{Name: upper}
	switch {
	case p.accept("*"):
		fc.Star = true
		p.expect(")")
	case !p.accept(")"):
		fc.Distinct = p.accept("DISTINCT")
		fc.Args = list(p, p.expr)
		p.expect(")")
	}
	return fc
}

func (p *parser) caseExpr() Expr {
	ce := &CaseExpr{}
	if !p.at("WHEN") {
		ce.Operand = p.expr()
	}
	for p.accept("WHEN") {
		ce.Whens = append(ce.Whens, p.expr())
		p.expect("THEN")
		ce.Thens = append(ce.Thens, p.expr())
	}
	if len(ce.Whens) == 0 {
		p.fail("CASE requires at least one WHEN")
	}
	ce.Else = p.clause("ELSE")
	p.expect("END")
	return ce
}

func (p *parser) collPredicate(kw string) Expr {
	cp := &CollPredicate{Kind: CollAny, Var: p.ident()}
	if kw == "EVERY" {
		cp.Kind = CollEvery
	}
	p.expect("IN")
	cp.Coll = p.expr()
	p.expect("SATISFIES")
	cp.Satisfies = p.expr()
	p.expect("END")
	return cp
}

func (p *parser) arrayComprehension() Expr {
	ac := &ArrayComprehension{Mapper: p.expr()}
	p.expect("FOR")
	ac.Var = p.ident()
	p.expect("IN")
	ac.Coll = p.expr()
	ac.When = p.clause("WHEN")
	p.expect("END")
	return ac
}
