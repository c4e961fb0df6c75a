package n1ql

import (
	"strings"

	"couchgo/internal/value"
)

// Expr is a N1QL expression. Expressions evaluate against a Context
// (row bindings + parameters) and render back to source with String,
// which the planner uses for index matching (expressions are compared
// by their canonical text).
type Expr interface {
	String() string
	eval(ctx *Context) (any, error)
}

// --- Expression nodes ---

// Literal is a JSON constant.
type Literal struct{ Val any }

func (e *Literal) String() string {
	if e.Val == nil {
		return "NULL"
	}
	if value.IsMissing(e.Val) {
		return "MISSING"
	}
	if s, ok := e.Val.(string); ok {
		return quoteString(s)
	}
	return string(value.Marshal(e.Val))
}

// quoteString prints s as a string literal that lexes back to s byte for
// byte. (JSON would not: the lexer reads its \u003c as "u003c".)
func quoteString(s string) string { return `"` + stringEscaper.Replace(s) + `"` }

var stringEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`)

// slot locates a resolved name in Context.Slots: the index plus one,
// so that the zero value, an unresolved node, reads as unbound.
type slot int

// Ident is a bare identifier: either a keyspace alias or a top-level
// field of the default keyspace's document.
type Ident struct {
	Name string
	// slot holds the name's value or, when field is set, the default
	// keyspace's document the name is a field of.
	slot  slot
	field bool
}

func (e *Ident) String() string { return quoteIdent(e.Name) }

// Self is the whole document of the default binding (`SELECT RAW self`
// style; also used internally for primary index terms).
type Self struct{ slot slot }

func (e *Self) String() string { return "self" }

// Field is dotted access: Recv.Name.
type Field struct {
	Recv Expr
	Name string
}

func (e *Field) String() string { return recvString(e.Recv) + "." + quoteIdent(e.Name) }

// Element is array subscript access: Recv[Index].
type Element struct {
	Recv  Expr
	Index Expr
}

func (e *Element) String() string { return recvString(e.Recv) + "[" + e.Index.String() + "]" }

// recvString prints a postfix receiver, parenthesizing forms that
// would re-parse with the postfix binding tighter than intended (a
// leading minus: `-99[i]` parses as `-(99[i])`, not `(-99)[i]`).
func recvString(e Expr) string {
	s := e.String()
	if strings.HasPrefix(s, "-") {
		return "(" + s + ")"
	}
	return s
}

// ArrayConstruct is an array literal [e1, e2, ...].
type ArrayConstruct struct{ Elems []Expr }

func (e *ArrayConstruct) String() string {
	parts := make([]string, len(e.Elems))
	for i, el := range e.Elems {
		parts[i] = el.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// ObjectConstruct is an object literal {"k": e, ...}.
type ObjectConstruct struct {
	Names []string
	Vals  []Expr
}

func (e *ObjectConstruct) String() string {
	parts := make([]string, len(e.Names))
	for i := range e.Names {
		parts[i] = quoteString(e.Names[i]) + ": " + e.Vals[i].String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Param is a positional ($1) or named ($key) query parameter. Scope.Resolve
// gives it its ordinal among the statement's parameters.
type Param struct {
	Name string
	ord  int // 1 + the parameter's index in the resolving Scope; 0 = unresolved
}

func (e *Param) String() string { return "$" + e.Name }

// BinOp enumerates binary operators; binOps spells them and gives
// their precedence.
type BinOp int

const (
	OpEq BinOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpConcat
	OpAnd
	OpOr
	OpLike
	OpIn
)

// Binary applies Op to LHS and RHS.
type Binary struct {
	Op       BinOp
	LHS, RHS Expr
}

func (e *Binary) String() string {
	return "(" + e.LHS.String() + " " + binOps[e.Op].text + " " + e.RHS.String() + ")"
}

// UnOp enumerates unary operators.
type UnOp int

const (
	OpNot UnOp = iota
	OpNeg
)

// Unary applies Op to Operand.
type Unary struct {
	Op      UnOp
	Operand Expr
}

func (e *Unary) String() string {
	if e.Op == OpNot {
		return "(NOT " + e.Operand.String() + ")"
	}
	return "(-" + e.Operand.String() + ")"
}

// IsKind enumerates IS predicates.
type IsKind int

const (
	IsNull IsKind = iota
	IsNotNull
	IsMissingP
	IsNotMissing
	IsValued
	IsNotValued
)

var isText = map[IsKind]string{
	IsNull: "IS NULL", IsNotNull: "IS NOT NULL",
	IsMissingP: "IS MISSING", IsNotMissing: "IS NOT MISSING",
	IsValued: "IS VALUED", IsNotValued: "IS NOT VALUED",
}

// Is tests the nullness/missingness of Operand.
type Is struct {
	Kind    IsKind
	Operand Expr
}

func (e *Is) String() string { return "(" + e.Operand.String() + " " + isText[e.Kind] + ")" }

// Between is lo <= e <= hi (with NOT variant).
type Between struct {
	Operand, Lo, Hi Expr
	Not             bool
}

func (e *Between) String() string {
	not := ""
	if e.Not {
		not = "NOT "
	}
	return "(" + e.Operand.String() + " " + not + "BETWEEN " + e.Lo.String() + " AND " + e.Hi.String() + ")"
}

// FuncCall invokes a built-in function or aggregate.
type FuncCall struct {
	Name     string // upper-cased
	Args     []Expr
	Distinct bool // COUNT(DISTINCT x)
	Star     bool // COUNT(*)
	slot     slot // an aggregate's result, once its group is complete
}

func (e *FuncCall) String() string {
	name := quoteIdent(e.Name)
	if e.Star {
		return name + "(*)"
	}
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	d := ""
	if e.Distinct {
		d = "DISTINCT "
	}
	return name + "(" + d + strings.Join(parts, ", ") + ")"
}

// CollKind distinguishes ANY / EVERY collection predicates.
type CollKind int

const (
	CollAny CollKind = iota
	CollEvery
)

// CollPredicate is ANY|EVERY var IN coll SATISFIES pred END — the array
// predicate form that array indexes (§6.1.2) accelerate.
type CollPredicate struct {
	Kind      CollKind
	Var       string
	Coll      Expr
	Satisfies Expr
	slot      slot // Var's
}

func (e *CollPredicate) String() string {
	k := "ANY"
	if e.Kind == CollEvery {
		k = "EVERY"
	}
	return k + " " + quoteIdent(e.Var) + " IN " + e.Coll.String() + " SATISFIES " + e.Satisfies.String() + " END"
}

// ArrayComprehension is ARRAY expr FOR var IN coll [WHEN cond] END — the
// form the paper's NEST example uses ("ARRAY s.order_id FOR s IN
// PO.shipped_order_history END").
type ArrayComprehension struct {
	Mapper Expr
	Var    string
	Coll   Expr
	When   Expr // nil when absent
	slot   slot // Var's
}

func (e *ArrayComprehension) String() string {
	s := "ARRAY " + e.Mapper.String() + " FOR " + quoteIdent(e.Var) + " IN " + e.Coll.String()
	if e.When != nil {
		s += " WHEN " + e.When.String()
	}
	return s + " END"
}

// CaseExpr is a searched or simple CASE.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []Expr
	Thens   []Expr
	Else    Expr // nil when absent
}

func (e *CaseExpr) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	if e.Operand != nil {
		b.WriteString(" " + e.Operand.String())
	}
	for i := range e.Whens {
		b.WriteString(" WHEN " + e.Whens[i].String() + " THEN " + e.Thens[i].String())
	}
	if e.Else != nil {
		b.WriteString(" ELSE " + e.Else.String())
	}
	b.WriteString(" END")
	return b.String()
}

// MetaExpr is META() or META(alias): document metadata. Its fields
// (id, cas, seqno) parse as Field access on it; resolving folds the
// access into the node (field), so reading one builds no object.
type MetaExpr struct {
	Alias string
	field string
	slot  slot
}

func (e *MetaExpr) String() string {
	s := "meta()"
	if e.Alias != "" {
		s = "meta(" + quoteIdent(e.Alias) + ")"
	}
	if e.field != "" {
		s += "." + quoteIdent(e.field)
	}
	return s
}

// quoteIdent prints name bare when the lexer reads it back as this
// identifier (rune by rune, as the lexer does), in backticks otherwise.
func quoteIdent(name string) string {
	bare := name != "" && !keywords[strings.ToUpper(name)]
	for i, r := range name {
		bare = bare && isIdentPart(r) && (i > 0 || isIdentStart(r))
	}
	if bare {
		return name
	}
	return "`" + strings.ReplaceAll(name, "`", "``") + "`"
}

// --- Statements ---

// Statement is any parsed N1QL statement.
type Statement interface{ stmt() }

// ResultTerm is one projection in a SELECT list.
type ResultTerm struct {
	Expr  Expr   // nil for plain *
	Alias string // "" = derive from expression
	Star  bool   // * or alias.* (Expr holds the alias expr for alias.*)
}

// JoinKind distinguishes join/nest operators.
type JoinKind int

const (
	JoinInner JoinKind = iota
	JoinLeftOuter
)

// JoinTerm is JOIN/NEST keyspace ON [KEYS] expr. Per §3.2.4, N1QL
// accepts key joins only ("joins are only allowed when one of the two
// sides involves the primary key within a bucket") — the query service
// rejects OnCond joins. The grammar still parses the general ON form
// because the analytics service (§6.2) executes it: "the new analytics
// service will support a much wider range of queries ... such as large
// joins".
type JoinTerm struct {
	Kind     JoinKind
	Nest     bool // NEST instead of JOIN
	Keyspace string
	Alias    string
	// OnKeys is the key-join expression (ON KEYS ...). Exactly one of
	// OnKeys/OnCond is set.
	OnKeys Expr
	// OnCond is a general join condition (ON a.x = b.y ...).
	OnCond Expr
}

// UnnestTerm is UNNEST expr [AS alias].
type UnnestTerm struct {
	Kind  JoinKind
	Expr  Expr
	Alias string
}

// OrderTerm is one ORDER BY key.
type OrderTerm struct {
	Expr Expr
	Desc bool
}

// Select is a SELECT statement.
type Select struct {
	Distinct   bool
	Raw        bool // SELECT RAW expr
	Projection []ResultTerm
	Keyspace   string // "" for FROM-less SELECT
	Alias      string
	UseKeys    Expr // nil when absent
	Joins      []JoinTerm
	Unnests    []UnnestTerm
	Where      Expr
	GroupBy    []Expr
	Having     Expr
	OrderBy    []OrderTerm
	Limit      Expr
	Offset     Expr
}

func (*Select) stmt() {}

// Insert is INSERT/UPSERT INTO ks (KEY, VALUE) VALUES ...
type Insert struct {
	Upsert    bool
	Keyspace  string
	KeyExprs  []Expr
	ValExprs  []Expr
	Returning []ResultTerm
}

func (*Insert) stmt() {}

// SetClause is one SET path = expr assignment.
type SetClause struct {
	Path Expr // Field/Element chain rooted at an Ident
	Val  Expr
}

// Update is UPDATE ks [USE KEYS] SET ... UNSET ... WHERE ... LIMIT.
type Update struct {
	Keyspace  string
	Alias     string
	UseKeys   Expr
	Sets      []SetClause
	Unsets    []Expr
	Where     Expr
	Limit     Expr
	Returning []ResultTerm
}

func (*Update) stmt() {}

// Delete is DELETE FROM ks [USE KEYS] WHERE ... LIMIT.
type Delete struct {
	Keyspace  string
	Alias     string
	UseKeys   Expr
	Where     Expr
	Limit     Expr
	Returning []ResultTerm
}

func (*Delete) stmt() {}

// IndexUsing selects the index implementation (§3.3).
type IndexUsing int

const (
	UsingGSI IndexUsing = iota
	UsingView
)

func (u IndexUsing) String() string {
	if u == UsingView {
		return "VIEW"
	}
	return "GSI"
}

// CreateIndex is CREATE [PRIMARY] INDEX ... ON ks(keys) WHERE cond
// USING GSI|VIEW WITH {...}.
type CreateIndex struct {
	Primary  bool
	Name     string
	Keyspace string
	Keys     []Expr
	Where    Expr // selective/partial index predicate (§3.3.4)
	Using    IndexUsing
	With     map[string]any
}

func (*CreateIndex) stmt() {}

// DropIndex is DROP INDEX keyspace.name.
type DropIndex struct {
	Keyspace string
	Name     string
}

func (*DropIndex) stmt() {}

// Explain wraps another statement.
type Explain struct{ Target Statement }

func (*Explain) stmt() {}
