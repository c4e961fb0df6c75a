package memcproto

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// declaredOpcodes parses memcproto.go for every `OpX Opcode = 0x..`
// constant, so the test sees opcodes the way a reader of the source
// does rather than through the table under test.
func declaredOpcodes(t *testing.T) map[string]Opcode {
	t.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), "memcproto.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]Opcode{}
	for _, decl := range file.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, s := range gd.Specs {
			vs := s.(*ast.ValueSpec)
			if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "Opcode" || len(vs.Values) != 1 {
				continue
			}
			v, err := strconv.ParseUint(vs.Values[0].(*ast.BasicLit).Value, 0, 8)
			if err != nil {
				t.Fatalf("%s: %v", vs.Names[0].Name, err)
			}
			out[vs.Names[0].Name] = Opcode(v)
		}
	}
	if len(out) < 30 {
		t.Fatalf("parsed only %d opcode constants; the parser lost track of memcproto.go", len(out))
	}
	return out
}

// TestEveryKVOpcodeHasTableRow: a KV-range opcode constant without a
// row would compile, name itself "op_0x..", and be answered
// not_supported; a row without a constant could not be sent. Both are
// drift the table exists to prevent.
func TestEveryKVOpcodeHasTableRow(t *testing.T) {
	declared := declaredOpcodes(t)
	rows := map[Opcode]bool{}
	for _, spec := range KVOps() {
		if rows[spec.Code] {
			t.Errorf("opcode 0x%02x has two rows", uint8(spec.Code))
		}
		rows[spec.Code] = true
		if SpecOf(spec.Code) == nil || SpecOf(spec.Code).Name != spec.Name || spec.Code.String() != spec.Name {
			t.Errorf("row %s is not what SpecOf/String return for 0x%02x", spec.Name, uint8(spec.Code))
		}
	}
	for name, code := range declared {
		switch {
		case code < kvOpcodeEnd && !rows[code]:
			t.Errorf("%s (0x%02x) is in the KV range but has no op-table row", name, uint8(code))
		case code >= kvOpcodeEnd && SpecOf(code) != nil:
			t.Errorf("%s (0x%02x) is outside the KV range but has a row", name, uint8(code))
		case strings.HasPrefix(code.String(), "op_0x"):
			t.Errorf("%s (0x%02x) has no name", name, uint8(code))
		}
		delete(rows, code)
	}
	for code := range rows {
		t.Errorf("row 0x%02x has no Op constant in memcproto.go", uint8(code))
	}
}

// TestSpanNamesDeriveFromRow pins the names the table derives against
// the literals the hand-written client and server used.
func TestSpanNamesDeriveFromRow(t *testing.T) {
	for code, want := range map[Opcode][2]string{
		OpGet:           {"kv:get", "server:get"},
		OpGetAndLock:    {"kv:getandlock", "server:getandlock"},
		OpAppendVal:     {"kv:append", "server:append"},
		OpSubdocGet:     {"kv:subdoc:get", "server:subdoc_get"},
		OpSubdocArrAdd:  {"kv:subdoc:arrayappend", "server:subdoc_arrayappend"},
		OpSubdocCounter: {"kv:subdoc:counter", "server:subdoc_counter"},
		OpXDCRSet:       {"kv:xdcr", "server:xdcr_set"},
	} {
		if s := SpecOf(code); s.KVSpan != want[0] || s.ServerSpan != want[1] {
			t.Errorf("0x%02x spans = %q, %q; want %q, %q", uint8(code), s.KVSpan, s.ServerSpan, want[0], want[1])
		}
	}
}

// TestDesignListsOpTable keeps DESIGN.md §9.1's opcode/extras listing
// generated-equal to the table: every row must appear verbatim, and
// the listing must have no row the table lacks.
func TestDesignListsOpTable(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	start := strings.Index(string(doc), "### 9.1 ")
	end := strings.Index(string(doc), "### 9.2 ")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §9.1 followed by §9.2")
	}
	section := string(doc[start:end])
	for _, spec := range KVOps() {
		durable := "—"
		if spec.Durable {
			durable = "yes"
		}
		row := fmt.Sprintf("| `0x%02x` | `%s` | %s | %s | %s |", uint8(spec.Code), spec.Name, spec.Extras, spec.Resp, durable)
		if !strings.Contains(section, row+"\n") {
			t.Errorf("DESIGN.md §9.1 lacks the row\n%s", row)
		}
	}
	if n := strings.Count(section, "\n| `0x"); n != len(KVOps()) {
		t.Errorf("DESIGN.md §9.1 lists %d opcode rows, the table has %d", n, len(KVOps()))
	}
}
