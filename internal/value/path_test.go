package value

import "testing"

func mustPath(s string) Path {
	p, ok := ParsePath(s)
	if !ok {
		panic("bad path: " + s)
	}
	return p
}

func TestParsePath(t *testing.T) {
	good := map[string]string{
		"":                "",
		"a":               "a",
		"a.b.c":           "a.b.c",
		"a[0]":            "a[0]",
		"a[0].b":          "a[0].b",
		"a[-1]":           "a[-1]",
		"orders[2].lines": "orders[2].lines",
		"a[0][1]":         "a[0][1]",
	}
	for src, want := range good {
		p, ok := ParsePath(src)
		if !ok {
			t.Errorf("ParsePath(%q) failed", src)
			continue
		}
		if p.String() != want {
			t.Errorf("ParsePath(%q).String() = %q, want %q", src, p.String(), want)
		}
	}
	for _, bad := range []string{"a[", "a[x]", "a.", "a[1"} {
		if _, ok := ParsePath(bad); ok {
			t.Errorf("ParsePath(%q) should fail", bad)
		}
	}
}

func TestPathEval(t *testing.T) {
	doc := MustParse(`{"a":{"b":[10,20,{"c":"deep"}]},"n":null}`)
	cases := map[string]any{
		"a.b[0]":    10.0,
		"a.b[-1].c": "deep",
		"n":         nil,
	}
	for src, want := range cases {
		got := mustPath(src).Eval(doc)
		if Compare(got, want) != 0 {
			t.Errorf("path %q = %v, want %v", src, got, want)
		}
	}
	for _, miss := range []string{"x", "a.x", "a.b[9]", "a.b[0].q"} {
		if !IsMissing(mustPath(miss).Eval(doc)) {
			t.Errorf("path %q should be MISSING", miss)
		}
	}
	// Empty path is the root.
	if Compare(mustPath("").Eval(doc), doc) != 0 {
		t.Error("empty path should yield root")
	}
}

func TestPathSet(t *testing.T) {
	doc := MustParse(`{"a":{"b":1},"arr":[1,2,3]}`)
	out, ok := mustPath("a.b").Set(doc, 42.0)
	if !ok || mustPath("a.b").Eval(out) != 42.0 {
		t.Error("set existing field failed")
	}
	out, ok = mustPath("a.new.deep").Set(out, "v")
	if !ok || mustPath("a.new.deep").Eval(out) != "v" {
		t.Error("set should create intermediate objects")
	}
	out, ok = mustPath("arr[1]").Set(out, 99.0)
	if !ok || mustPath("arr[1]").Eval(out) != 99.0 {
		t.Error("set array element failed")
	}
	if _, ok := mustPath("arr[9]").Set(out, 1.0); ok {
		t.Error("set beyond array bounds should fail")
	}
	if _, ok := mustPath("a.b.c").Set(out, 1.0); ok {
		t.Error("set through a scalar should fail")
	}
	// Root replacement.
	root, ok := mustPath("").Set(doc, "whole")
	if !ok || root != "whole" {
		t.Error("empty-path set should replace root")
	}
}

func TestPathDelete(t *testing.T) {
	doc := MustParse(`{"a":{"b":1,"c":2},"arr":[1,2,3]}`)
	out, ok := mustPath("a.b").Delete(doc)
	if !ok || !IsMissing(mustPath("a.b").Eval(out)) {
		t.Error("delete field failed")
	}
	if mustPath("a.c").Eval(out) != 2.0 {
		t.Error("delete removed sibling")
	}
	out, ok = mustPath("arr[1]").Delete(out)
	if !ok {
		t.Error("delete array element failed")
	}
	if arr := mustPath("arr").Eval(out).([]any); len(arr) != 2 || arr[1] != 3.0 {
		t.Errorf("array after delete = %v", arr)
	}
	if _, ok := mustPath("zzz").Delete(out); ok {
		t.Error("delete of absent field should report false")
	}
	if _, ok := mustPath("").Delete(out); ok {
		t.Error("delete of root should report false")
	}
}

func TestPathLen(t *testing.T) {
	if mustPath("a.b[0]").Len() != 3 {
		t.Error("Len should count field and index steps")
	}
}
