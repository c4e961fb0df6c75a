package fts

import (
	"context"
	"fmt"
	"path/filepath"
	"testing"

	"couchgo/internal/feed"
	"couchgo/internal/memcproto"
	"couchgo/internal/storage"
	"couchgo/internal/vbucket"
)

type harness struct {
	engine *Engine
	vbs    []*vbucket.VBucket
}

func newHarness(t *testing.T, nvb int) *harness {
	t.Helper()
	hub := feed.NewHub()
	h := &harness{engine: NewEngine(hub)}
	dir := t.TempDir()
	for i := 0; i < nvb; i++ {
		f, err := storage.Open(filepath.Join(dir, fmt.Sprintf("vb%d.couch", i)), false)
		if err != nil {
			t.Fatal(err)
		}
		vb := vbucket.New(i, f, vbucket.Active, vbucket.Config{})
		h.vbs = append(h.vbs, vb)
		if err := hub.AttachVB(i, vb.Producer()); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { vb.Close(); f.Close() })
	}
	t.Cleanup(hub.Close)
	return h
}

func (h *harness) put(t *testing.T, vb int, key, doc string) {
	t.Helper()
	if _, err := h.vbs[vb].Set(context.Background(), key, []byte(doc), 0, 0, 0, 0); err != nil {
		t.Fatal(err)
	}
}

func (h *harness) fresh() map[int]uint64 {
	out := map[int]uint64{}
	for _, vb := range h.vbs {
		out[vb.ID] = vb.HighSeqno()
	}
	return out
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Hello, World! the-quick_brown 42fox")
	want := []string{"hello", "world", "the", "quick", "brown", "42fox"}
	if len(got) != len(want) {
		t.Fatalf("tokens: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tokens: %v", got)
		}
	}
	if len(Tokenize("  ...  ")) != 0 {
		t.Error("punctuation-only input should yield no tokens")
	}
}

func TestTermSearch(t *testing.T) {
	h := newHarness(t, 2)
	if err := h.engine.Define(IndexDef{Name: "docs", Fields: []string{"title", "body"}}); err != nil {
		t.Fatal(err)
	}
	h.put(t, 0, "d1", `{"title": "NoSQL databases", "body": "Couchbase is a document database"}`)
	h.put(t, 1, "d2", `{"title": "Graph systems", "body": "Graph database systems model nodes"}`)
	h.put(t, 0, "d3", `{"title": "Caching", "body": "memcached is a cache"}`)

	hits, err := h.engine.SearchTerm(context.Background(), "docs", "database", SearchOptions{WaitSeqnos: h.fresh()})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Fatalf("hits: %+v", hits)
	}
	// Case-insensitive.
	hits, _ = h.engine.SearchTerm(context.Background(), "docs", "COUCHBASE", SearchOptions{WaitSeqnos: h.fresh()})
	if len(hits) != 1 || hits[0].ID != "d1" {
		t.Fatalf("case hits: %+v", hits)
	}
	// Unindexed field does not match.
	h.put(t, 0, "d4", `{"other": "database"}`)
	hits, _ = h.engine.SearchTerm(context.Background(), "docs", "database", SearchOptions{WaitSeqnos: h.fresh()})
	for _, hit := range hits {
		if hit.ID == "d4" {
			t.Error("unindexed field matched")
		}
	}
}

func TestScoreOrdering(t *testing.T) {
	h := newHarness(t, 1)
	h.engine.Define(IndexDef{Name: "docs", Fields: []string{"body"}})
	h.put(t, 0, "once", `{"body": "go"}`)
	h.put(t, 0, "thrice", `{"body": "go go go"}`)
	hits, _ := h.engine.SearchTerm(context.Background(), "docs", "go", SearchOptions{WaitSeqnos: h.fresh()})
	if len(hits) != 2 || hits[0].ID != "thrice" || hits[0].Score != 3 {
		t.Fatalf("hits: %+v", hits)
	}
	// Limit.
	hits, _ = h.engine.SearchTerm(context.Background(), "docs", "go", SearchOptions{Limit: 1, WaitSeqnos: h.fresh()})
	if len(hits) != 1 {
		t.Fatalf("limited: %+v", hits)
	}
}

func TestPrefixSearch(t *testing.T) {
	h := newHarness(t, 1)
	h.engine.Define(IndexDef{Name: "docs", Fields: []string{"body"}})
	h.put(t, 0, "d1", `{"body": "database databases data"}`)
	h.put(t, 0, "d2", `{"body": "datum"}`)
	h.put(t, 0, "d3", `{"body": "nothing here"}`)
	hits, _ := h.engine.SearchPrefix(context.Background(), "docs", "data", SearchOptions{WaitSeqnos: h.fresh()})
	if len(hits) != 1 || hits[0].ID != "d1" || hits[0].Score != 3 {
		t.Fatalf("prefix hits: %+v", hits)
	}
	hits, _ = h.engine.SearchPrefix(context.Background(), "docs", "dat", SearchOptions{WaitSeqnos: h.fresh()})
	if len(hits) != 2 {
		t.Fatalf("wider prefix: %+v", hits)
	}
}

func TestPhraseSearch(t *testing.T) {
	h := newHarness(t, 1)
	h.engine.Define(IndexDef{Name: "docs", Fields: []string{"body"}})
	h.put(t, 0, "d1", `{"body": "key value store"}`)
	h.put(t, 0, "d2", `{"body": "value of a key in a store"}`)
	h.put(t, 0, "d3", `{"body": "store key value"}`)
	hits, _ := h.engine.SearchPhrase(context.Background(), "docs", "key value store", SearchOptions{WaitSeqnos: h.fresh()})
	if len(hits) != 1 || hits[0].ID != "d1" {
		t.Fatalf("phrase hits: %+v", hits)
	}
	hits, _ = h.engine.SearchPhrase(context.Background(), "docs", "key value", SearchOptions{WaitSeqnos: h.fresh()})
	if len(hits) != 2 {
		t.Fatalf("sub-phrase hits: %+v", hits)
	}
	if hits, _ := h.engine.SearchPhrase(context.Background(), "docs", "", SearchOptions{}); hits != nil {
		t.Error("empty phrase")
	}
}

func TestPhraseDoesNotCrossFields(t *testing.T) {
	h := newHarness(t, 1)
	h.engine.Define(IndexDef{Name: "docs", Fields: []string{"a", "b"}})
	h.put(t, 0, "d1", `{"a": "hello", "b": "world"}`)
	h.put(t, 0, "d2", `{"a": "hello world", "b": "x"}`)
	hits, _ := h.engine.SearchPhrase(context.Background(), "docs", "hello world", SearchOptions{WaitSeqnos: h.fresh()})
	if len(hits) != 1 || hits[0].ID != "d2" {
		t.Fatalf("cross-field phrase: %+v", hits)
	}
}

func TestUpdateAndDeleteMaintenance(t *testing.T) {
	h := newHarness(t, 1)
	h.engine.Define(IndexDef{Name: "docs", Fields: []string{"body"}})
	h.put(t, 0, "d1", `{"body": "alpha"}`)
	hits, _ := h.engine.SearchTerm(context.Background(), "docs", "alpha", SearchOptions{WaitSeqnos: h.fresh()})
	if len(hits) != 1 {
		t.Fatal("initial index")
	}
	h.put(t, 0, "d1", `{"body": "beta"}`)
	hits, _ = h.engine.SearchTerm(context.Background(), "docs", "alpha", SearchOptions{WaitSeqnos: h.fresh()})
	if len(hits) != 0 {
		t.Fatalf("stale term: %+v", hits)
	}
	hits, _ = h.engine.SearchTerm(context.Background(), "docs", "beta", SearchOptions{WaitSeqnos: h.fresh()})
	if len(hits) != 1 {
		t.Fatal("updated term missing")
	}
	h.vbs[0].Do(context.Background(), &vbucket.Op{Code: memcproto.OpDelete, Key: "d1"})
	hits, _ = h.engine.SearchTerm(context.Background(), "docs", "beta", SearchOptions{WaitSeqnos: h.fresh()})
	if len(hits) != 0 {
		t.Fatalf("deleted doc still indexed: %+v", hits)
	}
}

func TestDefineOnExistingDataBackfills(t *testing.T) {
	h := newHarness(t, 1)
	for i := 0; i < 20; i++ {
		h.put(t, 0, fmt.Sprintf("d%d", i), `{"body": "preexisting words"}`)
	}
	h.engine.Define(IndexDef{Name: "late", Fields: []string{"body"}})
	hits, _ := h.engine.SearchTerm(context.Background(), "late", "preexisting", SearchOptions{WaitSeqnos: h.fresh()})
	if len(hits) != 20 {
		t.Fatalf("backfill: %d hits", len(hits))
	}
}

func TestAllStringFieldsDefault(t *testing.T) {
	h := newHarness(t, 1)
	h.engine.Define(IndexDef{Name: "all"})
	h.put(t, 0, "d1", `{"x": "findme", "n": 42, "nested": {"y": "hidden"}}`)
	hits, _ := h.engine.SearchTerm(context.Background(), "all", "findme", SearchOptions{WaitSeqnos: h.fresh()})
	if len(hits) != 1 {
		t.Fatalf("default fields: %+v", hits)
	}
	// Nested fields are not in the default top-level set.
	hits, _ = h.engine.SearchTerm(context.Background(), "all", "hidden", SearchOptions{WaitSeqnos: h.fresh()})
	if len(hits) != 0 {
		t.Fatalf("nested should not index by default: %+v", hits)
	}
}

func TestDetachVBRemovesDocs(t *testing.T) {
	h := newHarness(t, 2)
	h.engine.Define(IndexDef{Name: "docs", Fields: []string{"body"}})
	h.put(t, 0, "a", `{"body": "shared term"}`)
	h.put(t, 1, "b", `{"body": "shared term"}`)
	h.engine.SearchTerm(context.Background(), "docs", "shared", SearchOptions{WaitSeqnos: h.fresh()})
	// What a vBucket leaving the engine does: its feed stops and a
	// rollback to 0 purges its documents.
	h.engine.hub.DetachVB(1)
	h.engine.indexes["docs"].Rollback(1, 0)
	hits, _ := h.engine.SearchTerm(context.Background(), "docs", "shared", SearchOptions{})
	if len(hits) != 1 || hits[0].ID != "a" {
		t.Fatalf("after detach: %+v", hits)
	}
}

func TestDDLErrors(t *testing.T) {
	h := newHarness(t, 1)
	if err := h.engine.Define(IndexDef{Name: "x", Fields: []string{"bad["}}); err == nil {
		t.Error("bad path should fail")
	}
	h.engine.Define(IndexDef{Name: "x"})
	if err := h.engine.Define(IndexDef{Name: "x"}); err != ErrIndexExists {
		t.Errorf("dup: %v", err)
	}
	if _, err := h.engine.SearchTerm(context.Background(), "nope", "x", SearchOptions{}); err != ErrNoSuchIndex {
		t.Errorf("unknown: %v", err)
	}
	if err := h.engine.Drop("nope"); err != ErrNoSuchIndex {
		t.Errorf("drop unknown: %v", err)
	}
	if err := h.engine.Drop("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.engine.SearchTerm(context.Background(), "x", "x", SearchOptions{}); err != ErrNoSuchIndex {
		t.Errorf("search after drop: %v", err)
	}
}

func TestArrayFieldsIndexed(t *testing.T) {
	h := newHarness(t, 1)
	h.engine.Define(IndexDef{Name: "docs", Fields: []string{"tags"}})
	h.put(t, 0, "d1", `{"tags": ["red panda", "blue whale"]}`)
	hits, _ := h.engine.SearchTerm(context.Background(), "docs", "whale", SearchOptions{WaitSeqnos: h.fresh()})
	if len(hits) != 1 {
		t.Fatalf("array field: %+v", hits)
	}
	// Phrase within one element; not across elements.
	hits, _ = h.engine.SearchPhrase(context.Background(), "docs", "panda blue", SearchOptions{WaitSeqnos: h.fresh()})
	if len(hits) != 0 {
		t.Fatalf("phrase across elements: %+v", hits)
	}
}
