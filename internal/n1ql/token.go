// Package n1ql implements the N1QL query language (paper §3.2): lexer,
// abstract syntax tree, recursive-descent parser, and expression
// evaluator. N1QL is "the first NoSQL query language to leverage the
// flexibility of JSON with nearly the full expressive power of SQL";
// this package covers the language surface the paper describes —
// SELECT with USE KEYS, key joins, NEST and UNNEST, DML, index DDL, and
// the JSON-aware expression language with MISSING/NULL propagation.
//
// The planner and executor packages consume the ASTs produced here; the
// view and GSI engines reuse the expression sub-language for index key
// and filter definitions.
package n1ql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// tokenKind classifies lexical tokens.
type tokenKind int

const (
	tkEOF tokenKind = iota
	tkIdent
	tkKeyword
	tkNumber
	tkString
	tkOp    // operators and punctuation
	tkParam // $name or $1
)

type token struct {
	kind tokenKind
	text string // keywords are upper-cased; idents keep their case
	pos  int
}

func (t token) String() string {
	if t.kind == tkEOF {
		return "end of statement"
	}
	return fmt.Sprintf("%q", t.text)
}

// keywords recognized by the lexer. Identifiers matching these
// (case-insensitively) become keyword tokens; backtick quoting turns
// any of them back into a plain identifier.
var keywords = map[string]bool{
	"SELECT": true, "DISTINCT": true, "RAW": true, "FROM": true, "AS": true,
	"USE": true, "KEYS": true, "ON": true, "JOIN": true, "INNER": true,
	"LEFT": true, "OUTER": true, "NEST": true, "UNNEST": true,
	"WHERE": true, "GROUP": true, "BY": true, "HAVING": true,
	"ORDER": true, "ASC": true, "DESC": true, "LIMIT": true, "OFFSET": true,
	"INSERT": true, "INTO": true, "KEY": true, "VALUE": true, "VALUES": true,
	"UPSERT": true, "UPDATE": true, "SET": true, "UNSET": true,
	"DELETE": true, "RETURNING": true,
	"CREATE": true, "DROP": true, "INDEX": true, "PRIMARY": true,
	"USING": true, "GSI": true, "VIEW": true, "WITH": true,
	"EXPLAIN": true, "AND": true, "OR": true, "NOT": true,
	"IS": true, "NULL": true, "MISSING": true, "VALUED": true,
	"TRUE": true, "FALSE": true, "LIKE": true, "IN": true, "BETWEEN": true,
	"CASE": true, "WHEN": true, "THEN": true, "ELSE": true, "END": true,
	"ANY": true, "EVERY": true, "SATISFIES": true, "ARRAY": true, "FOR": true,
	"EXISTS": true, "ALL": true,
}

type lexer struct {
	src    string
	pos    int
	tokens []token
}

// lex tokenizes src. It returns a descriptive error with the offending
// position on invalid input.
func lex(src string) ([]token, error) {
	l := &lexer{src: src}
	for {
		l.skipSpace()
		if l.pos >= len(l.src) {
			l.tokens = append(l.tokens, token{kind: tkEOF, pos: l.pos})
			return l.tokens, nil
		}
		start := l.pos
		c := l.src[l.pos]
		r, _ := utf8.DecodeRuneInString(l.src[l.pos:])
		switch {
		case c == '`' || c == '\'' || c == '"':
			text, err := l.quoted(c)
			if err != nil {
				return nil, err
			}
			kind := tkString
			if c == '`' {
				kind = tkIdent
			}
			l.tokens = append(l.tokens, token{kind: kind, text: text, pos: start})
		case c == '$':
			l.pos++
			name := l.ident()
			if name == "" {
				return nil, fmt.Errorf("n1ql: bare $ at position %d", start)
			}
			l.tokens = append(l.tokens, token{kind: tkParam, text: name, pos: start})
		case c >= '0' && c <= '9':
			l.tokens = append(l.tokens, token{kind: tkNumber, text: l.number(), pos: start})
		case isIdentStart(r):
			word := l.ident()
			up := strings.ToUpper(word)
			if keywords[up] {
				l.tokens = append(l.tokens, token{kind: tkKeyword, text: up, pos: start})
			} else {
				l.tokens = append(l.tokens, token{kind: tkIdent, text: word, pos: start})
			}
		default:
			op, err := l.operator()
			if err != nil {
				return nil, err
			}
			l.tokens = append(l.tokens, token{kind: tkOp, text: op, pos: start})
		}
	}
}

func (l *lexer) skipSpace() {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			l.pos++
			continue
		}
		// -- line comments and /* block comments */
		if c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '-' {
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
			continue
		}
		if c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '*' {
			end := strings.Index(l.src[l.pos+2:], "*/")
			if end < 0 {
				l.pos = len(l.src)
			} else {
				l.pos += 2 + end + 2
			}
			continue
		}
		return
	}
}

func isIdentStart(r rune) bool {
	return r == '_' || unicode.IsLetter(r)
}

func isIdentPart(r rune) bool {
	return r == '_' || unicode.IsLetter(r) || unicode.IsDigit(r)
}

// ident reads an identifier rune by rune; a byte that is not UTF-8
// reads as U+FFFD, which is no identifier's part.
func (l *lexer) ident() string {
	start := l.pos
	l.pos = len(l.src) - len(strings.TrimLeftFunc(l.src[start:], isIdentPart))
	return l.src[start:l.pos]
}

func (l *lexer) number() string {
	start := l.pos
	for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
		l.pos++
	}
	if l.pos < len(l.src) && l.src[l.pos] == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9' {
		l.pos++
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
	}
	if l.pos < len(l.src) && (l.src[l.pos] == 'e' || l.src[l.pos] == 'E') {
		save := l.pos
		l.pos++
		if l.pos < len(l.src) && (l.src[l.pos] == '+' || l.src[l.pos] == '-') {
			l.pos++
		}
		if l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
				l.pos++
			}
		} else {
			l.pos = save
		}
	}
	return l.src[start:l.pos]
}

// quoted reads a quoted string, or a backticked identifier; a doubled
// quote stands for one (SQL style).
func (l *lexer) quoted(quote byte) (string, error) {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		switch c := l.src[l.pos]; {
		case c == quote && l.pos+1 < len(l.src) && l.src[l.pos+1] == quote:
			b.WriteByte(quote)
			l.pos += 2
		case c == quote:
			l.pos++
			return b.String(), nil
		case c == '\\' && quote != '`':
			if !l.escape(&b) {
				return "", fmt.Errorf("n1ql: malformed escape at position %d", l.pos)
			}
		default:
			b.WriteByte(c)
			l.pos++
		}
	}
	return "", fmt.Errorf("n1ql: unterminated %c...%c starting at %d", quote, quote, start)
}

// escape writes what the string escape at l.pos stands for and reads
// past it. It means what it means in JSON (\b \f \n \r \t, and \uXXXX
// with a surrogate pair as one rune and a lone surrogate as U+FFFD); any
// other escaped byte, \' and \` included, stands for itself. A \u
// without four hex digits, or a backslash that ends the source, is
// malformed: escape reports false.
func (l *lexer) escape(b *strings.Builder) bool {
	if l.pos+1 >= len(l.src) {
		return false
	}
	if esc := l.src[l.pos+1]; esc != 'u' {
		if i := strings.IndexByte("bfnrt", esc); i >= 0 {
			esc = "\b\f\n\r\t"[i]
		}
		b.WriteByte(esc)
		l.pos += 2
		return true
	}
	unit := func(at int) rune { // the UTF-16 code unit a \uXXXX at src[at:] spells, -1 for none
		if at+6 > len(l.src) || l.src[at:at+2] != `\u` {
			return -1
		}
		u, err := strconv.ParseUint(l.src[at+2:at+6], 16, 16)
		if err != nil {
			return -1
		}
		return rune(u)
	}
	r := unit(l.pos)
	if r < 0 {
		return false
	}
	if l.pos += 6; utf16.IsSurrogate(r) {
		if r = utf16.DecodeRune(r, unit(l.pos)); r != unicode.ReplacementChar {
			l.pos += 6
		}
	}
	b.WriteRune(r)
	return true
}

// twoCharOps lists multi-character operators, longest first.
var twoCharOps = []string{"<=", ">=", "!=", "<>", "==", "||"}

func (l *lexer) operator() (string, error) {
	if l.pos+1 < len(l.src) {
		two := l.src[l.pos : l.pos+2]
		for _, op := range twoCharOps {
			if two == op {
				l.pos += 2
				return op, nil
			}
		}
	}
	c := l.src[l.pos]
	switch c {
	case '=', '<', '>', '+', '-', '*', '/', '%', '(', ')', '[', ']', '{', '}', ',', '.', ':', ';', '?':
		l.pos++
		return string(c), nil
	}
	return "", fmt.Errorf("n1ql: unexpected character %q at position %d", c, l.pos)
}
